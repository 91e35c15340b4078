package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"graphulo/internal/skv"
)

func ent(row string, ts int64, v string) skv.Entry {
	return skv.Entry{K: skv.Key{Row: row, ColF: "f", ColQ: "q", Ts: ts}, V: skv.Value(v)}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t000001", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []skv.Entry
	for i := 0; i < 10; i++ {
		batch := []skv.Entry{
			ent(fmt.Sprintf("r%03d", 2*i), int64(2*i+1), "a"),
			ent(fmt.Sprintf("r%03d", 2*i+1), int64(2*i+2), "b"),
		}
		want = append(want, batch...)
		if err := l.Append(batch); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately no Close: replay must see synced appends.
	got, maxTs, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if maxTs != 20 {
		t.Fatalf("maxTs = %d, want 20", maxTs)
	}
	l.Close()
}

func TestReplayTornTailStopsAtLastValidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t000001", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]skv.Entry{ent(fmt.Sprintf("r%d", i), int64(i+1), "v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: chop a few bytes off the last record.
	seg := filepath.Join(dir, segmentName("t000001", 1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	got, _, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("torn-tail replay kept %d records, want 4", len(got))
	}
	for i, e := range got {
		if e.K.Row != fmt.Sprintf("r%d", i) {
			t.Fatalf("record %d = %v", i, e.K)
		}
	}

	// Corrupt a byte inside the last still-valid record (all five
	// records are the same size here): CRC must reject it.
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	recSize := int(st.Size()) / 5
	data[4*recSize-1] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, err = Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("corrupt-record replay kept %d records, want 3", len(got))
	}
}

func TestRotateAndDropThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t000001", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]skv.Entry{ent("a", 1, "1")}); err != nil {
		t.Fatal(err)
	}
	mark, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]skv.Entry{ent("b", 2, "2")}); err != nil {
		t.Fatal(err)
	}
	// Drop the pre-rotation segments, as a minor compaction would after
	// flushing entry "a" to an rfile.
	if err := l.DropThrough(mark); err != nil {
		t.Fatal(err)
	}
	got, _, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].K.Row != "b" {
		t.Fatalf("post-drop replay = %v, want only b", got)
	}
	l.Close()
}

func TestSegmentSizeRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t000001", Options{MaxSegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append([]skv.Entry{ent(fmt.Sprintf("row%05d", i), int64(i+1), "value")}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	seqs, err := segments(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("expected auto-rotation to produce several segments, got %d", len(seqs))
	}
	got, _, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("multi-segment replay = %d entries, want 20", len(got))
	}
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t000001", Options{})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := ent(fmt.Sprintf("w%02d-%03d", w, i), int64(w*perWriter+i+1), "v")
				if err := l.Append([]skv.Entry{e}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d entries, want %d", len(got), writers*perWriter)
	}
	seen := map[string]bool{}
	for _, e := range got {
		seen[e.K.Row] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("lost or duplicated rows: %d distinct", len(seen))
	}
}

func TestOpenNeverAppendsToExistingSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := Open(dir, "t000001", Options{})
	l.Append([]skv.Entry{ent("a", 1, "1")})
	l.Close()
	l2, err := Open(dir, "t000001", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.activeSeq != 2 {
		t.Fatalf("reopen should start segment 2, got %d", l2.activeSeq)
	}
	l2.Append([]skv.Entry{ent("b", 2, "2")})
	l2.Close()
	got, _, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replay across reopen = %d entries, want 2", len(got))
	}
}

func TestRotateNoOpOnEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, "t000001", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Idle flush loop: an empty log must not churn segment files.
	for i := 0; i < 5; i++ {
		mark, err := l.Rotate()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.DropThrough(mark); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := segments(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("empty rotations churned segments: %v", seqs)
	}
	// A real record makes the next rotation rotate for real again.
	if err := l.Append([]skv.Entry{ent("a", 1, "v")}); err != nil {
		t.Fatal(err)
	}
	mark, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if mark != 1 {
		t.Fatalf("mark = %d, want 1", mark)
	}
	if err := l.DropThrough(mark); err != nil {
		t.Fatal(err)
	}
	got, _, err := Replay(dir, "t000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("dropped record still replayed: %v", got)
	}
}

// replaySegment writes seg as the only segment of a fresh log and
// replays it, failing if Replay allocates more than a constant multiple
// of the segment: each entry takes at least 5 of its bytes, and the
// replayed slices hold a few copies of each entry at most.
func replaySegment(t *testing.T, dir, id string, seg []byte) []skv.Entry {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segmentName(id, 1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, maxTs, err := Replay(dir, id)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(seg))*2*uint64(unsafe.Sizeof(skv.Entry{}))+64<<10; grew > limit {
		t.Fatalf("replaying %d bytes allocated %d bytes, limit %d", len(seg), grew, limit)
	}
	var wantTs int64
	for _, e := range got {
		wantTs = max(wantTs, e.K.Ts)
	}
	if maxTs != wantTs {
		t.Fatalf("maxTs = %d, the entries' largest is %d", maxTs, wantTs)
	}
	return got
}

// frame wraps a payload as one record with a correct length and CRC.
func frame(payload []byte) []byte {
	rec := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	return append(rec, payload...)
}

func samePrefix(t *testing.T, what string, got, of []skv.Entry) {
	t.Helper()
	if len(got) > len(of) {
		t.Fatalf("%s: %d entries, more than the %d it must be a prefix of", what, len(got), len(of))
	}
	for i := range got {
		if got[i].K != of[i].K || string(got[i].V) != string(of[i].V) {
			t.Fatalf("%s: entry %d = %v, want %v", what, i, got[i], of[i])
		}
	}
}

// FuzzReplay: arbitrary bytes replay without a panic or an unbounded
// allocation, to a prefix of whole records. The bytes are a segment
// twice. Raw, cut anywhere they replay to a prefix of what they replay
// to whole, and behind a valid record they keep that record. Framed as
// one record with a correct length and CRC, so that skv.DecodeBatch
// parses a hostile payload, they replay to exactly that payload's batch
// when it decodes and to nothing when it does not.
func FuzzReplay(f *testing.F) {
	lead := []skv.Entry{ent("r0", 3, "a"), ent("r1", 9, "b")}
	payload := skv.EncodeBatch(lead)
	f.Add(payload)
	f.Add(append(frame(payload), frame(skv.EncodeBatch([]skv.Entry{ent("r2", 4, "")}))...))
	f.Add(frame(payload)[:len(payload)/2])
	f.Add(skv.EncodeBatch(nil))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		whole := replaySegment(t, dir, "raw", data)
		cut := replaySegment(t, dir, "cut", data[:len(data)/2])
		samePrefix(t, "cut segment", cut, whole)
		behind := replaySegment(t, dir, "lead", append(frame(payload), data...))
		samePrefix(t, "valid record", lead, behind)

		framed := replaySegment(t, dir, "framed", frame(data))
		want, err := skv.DecodeBatch(data)
		if err != nil {
			want = nil
		}
		if len(framed) != len(want) {
			t.Fatalf("framed payload replayed %d entries, its batch holds %d (decode error %v)", len(framed), len(want), err)
		}
		samePrefix(t, "framed payload", framed, want)
	})
}
