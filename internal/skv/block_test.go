package skv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// blockEntries is a deterministic block's worth of entries in key
// order, with the empty fields and empty values the codec must carry.
func blockEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{K: Key{Row: fmt.Sprintf("v%06d", i), ColF: "edge", ColQ: randStr(rng), Ts: rng.Int63n(1 << 40)}}
		if i%7 != 0 {
			out[i].V = EncodeFloat(float64(i))
		}
	}
	return out
}

func encodeBlock(entries []Entry) []byte {
	var buf []byte
	for _, e := range entries {
		buf = EncodeEntry(buf, e)
	}
	return buf
}

// decodeEach is the per-entry reference a parsed block must agree with.
func decodeEach(t *testing.T, src []byte) []Entry {
	t.Helper()
	var out []Entry
	for len(src) > 0 {
		e, rest, err := DecodeEntry(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
		src = rest
	}
	return out
}

// walk reads a block from its first entry to its end; limit bounds the
// walk, so a block that failed to end would show as too many entries.
func walk(b *Block, limit int) []Entry {
	var out []Entry
	for p := (BlockPos{}); len(out) <= limit; {
		var e Entry
		next, ok := b.Read(p, &e)
		if !ok {
			break
		}
		out = append(out, e)
		p = next
	}
	return out
}

// at returns the entry a position names, or ok false at the block end.
func at(b *Block, p BlockPos) (Entry, bool) {
	var e Entry
	_, ok := b.Read(p, &e)
	return e, ok
}

// TestDecodeBlockMatchesDecodeEntry: a parsed block walks to the
// entries the per-entry decode yields, copies everything it keeps out
// of src, and caps every value so an append cannot spill into the
// next; a seek to any entry's key, or between two keys, lands on the
// first entry not below it.
func TestDecodeBlockMatchesDecodeEntry(t *testing.T) {
	entries := blockEntries(300)
	src := encodeBlock(entries)
	b, err := ParseBlock(src, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := walk(b, len(entries)), decodeEach(t, src); !reflect.DeepEqual(got, want) {
		t.Fatal("parsed block differs from per-entry DecodeEntry")
	}
	for i := range src {
		src[i] ^= 0xff
	}
	if got := walk(b, len(entries)); !reflect.DeepEqual(got, entries) {
		t.Fatal("parsed entries changed when the source bytes did")
	}
	var pos []BlockPos
	for p := (BlockPos{}); ; {
		next, ok := b.Read(p, new(Entry))
		if !ok {
			break
		}
		pos = append(pos, p)
		p = next
	}
	e1, _ := at(b, pos[1])
	_ = append(e1.V, "spill"...)
	if e2, _ := at(b, pos[2]); string(e2.V) != string(entries[2].V) {
		t.Fatalf("append to value 1 overwrote value 2: %q", e2.V)
	}
	for i, e := range entries {
		if got, _ := at(b, b.Seek(e.K)); got.K != e.K {
			t.Fatalf("Seek(entry %d) = %v, want %v", i, got.K, e.K)
		}
		between := Key{Row: e.K.Row, ColF: e.K.ColF, ColQ: e.K.ColQ + "\x00", Ts: MaxTs}
		got, ok := at(b, b.Seek(between))
		if i+1 < len(entries) && (!ok || got.K != entries[i+1].K) {
			t.Fatalf("Seek after entry %d = %v, want %v", i, got.K, entries[i+1].K)
		}
		if i+1 == len(entries) && ok {
			t.Fatalf("Seek past the last entry = %v, want the block end", got.K)
		}
	}
	if got, _ := at(b, b.Seek(Key{})); got.K != entries[0].K {
		t.Fatalf("Seek before the first entry = %v", got.K)
	}
	empty, err := ParseBlock(nil, 0)
	if err != nil {
		t.Fatalf("empty block: %v", err)
	}
	if n := len(walk(empty, 1)); n != 0 {
		t.Fatalf("empty block walks to %d entries", n)
	}
	if _, ok := at(empty, empty.Seek(Key{Row: "a"})); ok {
		t.Fatal("seek in the empty block found an entry")
	}
}

// TestDecodeBlockRejects: the bytes must hold exactly the caller's
// count. Fewer or more is ErrEntryCount; bytes that end inside an entry
// are a truncation, as DecodeEntry reports it; and a length written in
// more bytes than EncodeEntry uses is corruption.
func TestDecodeBlockRejects(t *testing.T) {
	src := encodeBlock(blockEntries(10))
	for _, n := range []int{-1, 0, 9, 11, 1 << 40} {
		if _, err := ParseBlock(src, n); !errors.Is(err, ErrEntryCount) {
			t.Errorf("count %d for 10 entries: err = %v, want ErrEntryCount", n, err)
		}
	}
	_, err := ParseBlock(src[:len(src)-1], 10)
	if err == nil || errors.Is(err, ErrEntryCount) {
		t.Fatalf("block cut inside an entry: err = %v, want a truncation", err)
	}
	overlong := []byte{0x80, 0x00, 0, 0, 0, 0} // an empty entry whose row length takes 2 bytes
	if _, _, err := DecodeEntry(overlong); err != nil {
		t.Fatalf("DecodeEntry(overlong) = %v, want it accepted", err)
	}
	if _, err := ParseBlock(overlong, 1); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
}

// FuzzDecodeBlock: arbitrary bytes and counts never panic and never
// allocate beyond what the source could encode; what parses walks to
// exactly n entries that re-encode to the same bytes and share no
// memory with them, and a seek never panics — on a block whose keys
// ascend, it lands on the entry it names.
func FuzzDecodeBlock(f *testing.F) {
	good := encodeBlock(blockEntries(20))
	f.Add(good, 20)
	f.Add(good, 19)
	f.Add(good, 21)
	f.Add(good[:len(good)/2], 10)
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 0, 0}, 1)
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0}, 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 1)
	f.Fuzz(func(t *testing.T, src []byte, n int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b, err := ParseBlock(src, n)
		runtime.ReadMemStats(&after)
		// A block keeps one copy of src, at most one copy of its values
		// and a restart per 16 entries of at least 5 bytes, so four
		// times the source covers it, size classes included; the
		// constant covers an error's text.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(src)+4096) {
			t.Fatalf("parsing %d bytes (count %d) allocated %d bytes", len(src), n, grew)
		}
		if err != nil {
			return
		}
		got := walk(b, n)
		if len(got) != n {
			t.Fatalf("walked %d entries, want %d", len(got), n)
		}
		if re := encodeBlock(got); string(re) != string(src) {
			t.Fatalf("re-encoding gives %x, want %x", re, src)
		}
		want := make([]Entry, len(got))
		for i, e := range got {
			want[i] = Entry{K: e.K, V: append(Value(nil), e.V...)}
		}
		for i := range src {
			src[i] ^= 0xff
		}
		got = walk(b, n)
		for i := range got {
			if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
				t.Fatalf("entry %d changed with its source bytes", i)
			}
		}
		ascending := true
		for i := 1; i < len(want); i++ {
			ascending = ascending && Compare(want[i-1].K, want[i].K) < 0
		}
		for i, e := range want {
			found, ok := at(b, b.Seek(e.K))
			if ascending && (!ok || found.K != e.K) {
				t.Fatalf("Seek(entry %d) = %v, want %v", i, found.K, e.K)
			}
		}
	})
}
