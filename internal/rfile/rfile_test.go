package rfile

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

func ent(i int) skv.Entry {
	return skv.Entry{
		K: skv.Key{Row: fmt.Sprintf("row%05d", i), ColF: "f", ColQ: fmt.Sprintf("q%d", i%3), Ts: int64(i + 1)},
		V: skv.Value(fmt.Sprintf("value-%d", i)),
	}
}

func buildEntries(n int) []skv.Entry {
	out := make([]skv.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ent(i))
	}
	return out
}

func writeFile(t *testing.T, entries []skv.Entry, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.rf")
	if err := WriteAll(path, entries, WriterOptions{BlockSize: blockSize}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTripMultiBlock(t *testing.T) {
	entries := buildEntries(5000)
	// Tiny blocks force many index entries and block crossings.
	path := writeFile(t, entries, 256)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != len(entries) {
		t.Fatalf("Count = %d, want %d", r.Count(), len(entries))
	}
	if len(r.blocks) < 50 {
		t.Fatalf("expected many blocks at 256-byte target, got %d", len(r.blocks))
	}
	it := r.Iter()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("scanned %d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].K != entries[i].K || string(got[i].V) != string(entries[i].V) {
			t.Fatalf("entry %d = %v, want %v", i, got[i], entries[i])
		}
	}
}

// TestSeekMatchesSliceIter cross-checks rfile seek semantics against the
// reference in-memory iterator on many ranges, including block-boundary
// starts and empty ranges.
func TestSeekMatchesSliceIter(t *testing.T) {
	entries := buildEntries(1000)
	path := writeFile(t, entries, 512)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ranges := []skv.Range{
		skv.FullRange(),
		skv.RowRange("row00100", "row00200"),
		skv.RowRange("", "row00003"),
		skv.RowRange("row00998", ""),
		skv.RowRange("zzz", ""),
		skv.ExactRow("row00500"),
		skv.PrefixRange("row0007"),
		skv.RowRange("row00099x", "row00101"), // start between keys
	}
	for _, rng := range ranges {
		ref := iterator.NewSliceIter(entries)
		if err := ref.Seek(rng); err != nil {
			t.Fatal(err)
		}
		want, _ := iterator.Collect(ref)
		it := r.Iter()
		if err := it.Seek(rng); err != nil {
			t.Fatal(err)
		}
		got, err := iterator.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("range %v: got %d entries, want %d", rng, len(got), len(want))
		}
		for i := range got {
			if got[i].K != want[i].K {
				t.Fatalf("range %v entry %d: %v want %v", rng, i, got[i].K, want[i].K)
			}
		}
	}
}

func TestReseekSameIter(t *testing.T) {
	entries := buildEntries(300)
	path := writeFile(t, entries, 512)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter()
	for _, start := range []int{250, 10, 120, 0} {
		rng := skv.RowRange(fmt.Sprintf("row%05d", start), fmt.Sprintf("row%05d", start+5))
		if err := it.Seek(rng); err != nil {
			t.Fatal(err)
		}
		got, _ := iterator.Collect(it)
		if len(got) != 5 {
			t.Fatalf("reseek at %d: got %d entries, want 5", start, len(got))
		}
	}
}

func TestEmptyFile(t *testing.T) {
	path := writeFile(t, nil, 0)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Count() != 0 {
		t.Fatalf("empty file Count = %d", r.Count())
	}
	it := r.Iter()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	if it.HasTop() {
		t.Fatal("empty file has a top")
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "bad.rf"), WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.Append(ent(5)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(ent(3)); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	entries := buildEntries(2000)
	path := writeFile(t, entries, 512)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte early in the data region (inside some data block).
	data[100] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path) // index is intact; open succeeds
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter()
	err = it.Seek(skv.FullRange())
	if err == nil {
		_, err = iterator.Collect(it)
	}
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupted block not detected: %v", err)
	}
}

func TestTrailerCorruptionDetected(t *testing.T) {
	entries := buildEntries(100)
	path := writeFile(t, entries, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the index (after the data region, before the trailer).
	data[len(data)-trailerLen-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt index accepted")
	}
}

// TestSeekPastLastBlock seeks beyond the final key: the iterator must
// land cleanly at EOF without error, including when re-seeked back.
func TestSeekPastLastBlock(t *testing.T) {
	entries := buildEntries(500)
	path := writeFile(t, entries, 512)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter()
	if err := it.Seek(skv.RowRange("row99999", "")); err != nil {
		t.Fatal(err)
	}
	if it.HasTop() {
		t.Fatalf("seek past last block has top %v", it.Top())
	}
	// The same iterator must recover on a re-seek to real data.
	if err := it.Seek(skv.ExactRow("row00042")); err != nil {
		t.Fatal(err)
	}
	got, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].K.Row != "row00042" {
		t.Fatalf("re-seek after EOF returned %v", got)
	}
}

// TestSeekStartInsideBlockBoundary starts scans exactly at block first
// keys and one key either side of them, cross-checking the slice
// reference.
func TestSeekStartInsideBlockBoundary(t *testing.T) {
	entries := buildEntries(1000)
	path := writeFile(t, entries, 256)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.blocks) < 10 {
		t.Fatalf("want many blocks, got %d", len(r.blocks))
	}
	for _, bi := range []int{1, 2, len(r.blocks) / 2, len(r.blocks) - 1} {
		first := r.blocks[bi].firstKey
		for _, start := range []skv.Key{
			first,
			{Row: first.Row, ColF: first.ColF, ColQ: first.ColQ + "\x00", Ts: skv.MaxTs},
			{Row: first.Row + "\x00", Ts: skv.MaxTs},
		} {
			rng := skv.Range{Start: start, HasStart: true}
			ref := iterator.NewSliceIter(entries)
			if err := ref.Seek(rng); err != nil {
				t.Fatal(err)
			}
			want, _ := iterator.Collect(ref)
			it := r.Iter()
			if err := it.Seek(rng); err != nil {
				t.Fatal(err)
			}
			got, err := iterator.Collect(it)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) || (len(got) > 0 && got[0].K != want[0].K) {
				t.Fatalf("block %d start %v: got %d entries, want %d", bi, start, len(got), len(want))
			}
		}
	}
}

// TestEmptyFileSeekVariants covers empty-file seeks over every range
// shape, not just the full range.
func TestEmptyFileSeekVariants(t *testing.T) {
	path := writeFile(t, nil, 0)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, rng := range []skv.Range{skv.FullRange(), skv.ExactRow("a"), skv.RowRange("a", "b")} {
		it := r.Iter()
		if err := it.Seek(rng); err != nil {
			t.Fatal(err)
		}
		if it.HasTop() {
			t.Fatalf("empty file has top for %v", rng)
		}
		if err := it.Next(); err != nil {
			t.Fatalf("Next at EOF: %v", err)
		}
	}
}

// TestBlockCacheAccounting pins the cache contract: a first scan is all
// misses, a repeat scan over the same Reader is all hits, and closing
// the Reader evicts its blocks.
func TestBlockCacheAccounting(t *testing.T) {
	entries := buildEntries(2000)
	path := writeFile(t, entries, 512)
	c := cache.New(1 << 20)
	r, err := OpenWithOptions(path, ReaderOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() {
		t.Helper()
		it := r.Iter()
		if err := it.Seek(skv.FullRange()); err != nil {
			t.Fatal(err)
		}
		got, err := iterator.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(entries) {
			t.Fatalf("scan = %d entries, want %d", len(got), len(entries))
		}
	}
	scan()
	nblocks := int64(len(r.blocks))
	if c.Hits() != 0 || c.Misses() != nblocks {
		t.Fatalf("cold scan: hits=%d misses=%d, want 0/%d", c.Hits(), c.Misses(), nblocks)
	}
	scan()
	if c.Hits() != nblocks || c.Misses() != nblocks {
		t.Fatalf("warm scan: hits=%d misses=%d, want %d/%d", c.Hits(), c.Misses(), nblocks, nblocks)
	}
	if c.Len() != int(nblocks) {
		t.Fatalf("resident blocks = %d, want %d", c.Len(), nblocks)
	}
	r.Close()
	if c.Len() != 0 {
		t.Fatalf("Close left %d blocks resident", c.Len())
	}
}

// TestSortedSeeksInOneBlockOneLookup: sorted exact-row seeks on one
// iterator whose rows all lie in one block — neighbouring rows of a BFS
// frontier in one multi-range pass — cost one block lookup, not one per
// seek, and draining the block's last row does not load the next block.
func TestSortedSeeksInOneBlockOneLookup(t *testing.T) {
	entries := buildEntries(2000)
	c := cache.New(1 << 20)
	r, err := OpenWithOptions(writeFile(t, entries, 512), ReaderOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Block 1's rows after its first: an exact-row seek's start key
	// sorts before its row's first entry, so a seek to a block's first
	// row starts in the block before.
	lo := r.blocks[0].count
	rows := entries[lo+1 : lo+r.blocks[1].count]
	if len(rows) < 4 {
		t.Fatalf("block 1 holds %d rows, want ≥ 4", len(rows))
	}
	it := r.Iter()
	for _, e := range rows {
		if err := it.Seek(skv.ExactRow(e.K.Row)); err != nil {
			t.Fatal(err)
		}
		got, err := iterator.Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].K != e.K {
			t.Fatalf("seek %s = %v, want its one entry", e.K.Row, got)
		}
	}
	if lookups := c.Hits() + c.Misses(); lookups != 1 {
		t.Fatalf("%d sorted seeks in one block made %d block lookups, want 1", len(rows), lookups)
	}
}

// TestBloomSkipsAbsentRows checks the end-to-end bloom path: seeks for
// absent rows are answered without block loads and counted, and the
// false-positive rate at the default density stays small.
func TestBloomSkipsAbsentRows(t *testing.T) {
	entries := buildEntries(2000)
	path := writeFile(t, entries, 512)
	var stats telemetry.StatSet
	c := cache.New(1 << 20)
	r, err := OpenWithOptions(path, ReaderOptions{Cache: c, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Present rows must never be filtered (no false negatives).
	for i := 0; i < 2000; i += 97 {
		it := r.Iter()
		if err := it.Seek(skv.ExactRow(fmt.Sprintf("row%05d", i))); err != nil {
			t.Fatal(err)
		}
		if !it.HasTop() {
			t.Fatalf("bloom false negative on present row %d", i)
		}
	}
	// Absent rows: almost all seeks must short-circuit without a block
	// load.
	before := c.Misses() + c.Hits()
	const probes = 2000
	for i := 0; i < probes; i++ {
		it := r.Iter()
		if err := it.Seek(skv.ExactRow(fmt.Sprintf("absent%05d", i))); err != nil {
			t.Fatal(err)
		}
		if it.HasTop() {
			t.Fatalf("absent row %d returned %v", i, it.Top())
		}
	}
	neg := stats.Get(telemetry.BloomNegatives)
	fpRate := float64(probes-int(neg)) / probes
	if fpRate > 0.05 {
		t.Fatalf("bloom false-positive rate %.3f exceeds 5%% (negatives=%d)", fpRate, neg)
	}
	loads := c.Misses() + c.Hits() - before
	if int(loads) != probes-int(neg) {
		t.Fatalf("block lookups = %d, want one per false positive (%d)", loads, probes-int(neg))
	}
}

// TestMarkDeadStopsCacheFeeding pins the displaced-Reader contract: a
// Reader whose file was deleted by compaction keeps serving in-flight
// scans but must neither hold nor repopulate shared cache capacity.
func TestMarkDeadStopsCacheFeeding(t *testing.T) {
	entries := buildEntries(1000)
	path := writeFile(t, entries, 512)
	c := cache.New(1 << 20)
	r, err := OpenWithOptions(path, ReaderOptions{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.Iter()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	if _, err := iterator.Collect(it); err != nil {
		t.Fatal(err)
	}
	if c.Len() == 0 {
		t.Fatal("live scan did not populate cache")
	}
	r.MarkDead()
	if c.Len() != 0 {
		t.Fatalf("MarkDead left %d blocks resident", c.Len())
	}
	// A scan on the dead reader still works (fd is open) but must not
	// re-feed the cache.
	it = r.Iter()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("dead reader scan = %d entries, want %d", len(got), len(entries))
	}
	if c.Len() != 0 {
		t.Fatalf("dead reader repopulated cache with %d blocks", c.Len())
	}
}

// TestColQBloomSkipsAbsentCells pins the (row, column-qualifier) bloom:
// cell-confined seeks for pairs the file does not hold short-circuit
// without a block load (and count as ColQBloomNegatives),
// while present pairs are never filtered. The probe rows all exist in
// the file, so the row bloom admits every one of them — only the pair
// filter can reject.
func TestColQBloomSkipsAbsentCells(t *testing.T) {
	entries := buildEntries(2000)
	path := writeFile(t, entries, 512)
	var stats telemetry.StatSet
	c := cache.New(1 << 20)
	r, err := OpenWithOptions(path, ReaderOptions{Cache: c, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Present (row, colQ) pairs must never be filtered.
	for i := 0; i < 2000; i += 97 {
		it := r.Iter()
		rng := skv.ExactCell(fmt.Sprintf("row%05d", i), "f", fmt.Sprintf("q%d", i%3))
		if err := it.Seek(rng); err != nil {
			t.Fatal(err)
		}
		if !it.HasTop() {
			t.Fatalf("colq bloom false negative on present cell %d", i)
		}
	}
	// Absent pairs on present rows: almost all seeks must short-circuit
	// on the pair filter alone.
	before := c.Misses() + c.Hits()
	rowNegBefore := stats.Get(telemetry.BloomNegatives)
	const probes = 2000
	for i := 0; i < probes; i++ {
		it := r.Iter()
		rng := skv.ExactCell(fmt.Sprintf("row%05d", i), "f", fmt.Sprintf("absent%d", i))
		if err := it.Seek(rng); err != nil {
			t.Fatal(err)
		}
		if it.HasTop() {
			t.Fatalf("absent cell %d returned %v", i, it.Top())
		}
	}
	if got := stats.Get(telemetry.BloomNegatives); got != rowNegBefore {
		t.Fatalf("row bloom rejected %d present rows", got-rowNegBefore)
	}
	neg := stats.Get(telemetry.ColQBloomNegatives)
	fpRate := float64(probes-int(neg)) / probes
	if fpRate > 0.05 {
		t.Fatalf("colq bloom false-positive rate %.3f exceeds 5%% (negatives=%d)", fpRate, neg)
	}
	loads := c.Misses() + c.Hits() - before
	if int(loads) != probes-int(neg) {
		t.Fatalf("block lookups = %d, want one per false positive (%d)", loads, probes-int(neg))
	}
}
