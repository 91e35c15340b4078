package rfile

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// randomFileEntries is a sorted, duplicate-free entry set over several
// families, with rows of 1 to 40 entries (so rows span blocks) and
// about one empty value in five.
func randomFileEntries(rng *rand.Rand, rows int) []skv.Entry {
	families := []string{"deg", "edge", "w"}
	var out []skv.Entry
	for r := 0; r < rows; r++ {
		row := fmt.Sprintf("v%05d", r*3+rng.Intn(3))
		for n := 1 + rng.Intn(40); n > 0; n-- {
			e := skv.Entry{K: skv.Key{
				Row:  row,
				ColF: families[rng.Intn(len(families))],
				ColQ: fmt.Sprintf("c%03d", rng.Intn(200)),
				Ts:   rng.Int63n(4),
			}}
			if rng.Intn(5) != 0 {
				e.V = skv.Value(fmt.Sprint(rng.Intn(1000)))
			}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return skv.Compare(out[i].K, out[j].K) < 0 })
	uniq := out[:0]
	for i, e := range out {
		if i == 0 || skv.Compare(e.K, uniq[len(uniq)-1].K) != 0 {
			uniq = append(uniq, e)
		}
	}
	return uniq
}

// seekRanges is every seek start the differential test drives: each
// key, between each key and the next, before the first key and after
// the last, each row and cell exactly, and ranges ending anywhere up to
// a few dozen entries on — mid-block as often as not.
func seekRanges(rng *rand.Rand, entries []skv.Entry) []skv.Range {
	first, last := entries[0].K, entries[len(entries)-1].K
	out := []skv.Range{
		skv.FullRange(),
		{Start: skv.Key{Row: first.Row[:1], Ts: skv.MaxTs}, HasStart: true},
		{Start: skv.Key{Row: last.Row + "\x00", Ts: skv.MaxTs}, HasStart: true},
		skv.ExactRow(first.Row[:1]),
		skv.ExactRow(last.Row + "\x00"),
	}
	withEnd := func(start skv.Key, i int) skv.Range {
		r := skv.Range{Start: start, HasStart: true}
		if j := i + rng.Intn(40); j < len(entries) {
			r.End, r.HasEnd = entries[j].K, true
		}
		return r
	}
	for i, e := range entries {
		k := e.K
		out = append(out,
			withEnd(k, i),
			withEnd(skv.Key{Row: k.Row, ColF: k.ColF, ColQ: k.ColQ + "\x00", Ts: skv.MaxTs}, i+1),
			skv.ExactCell(k.Row, k.ColF, k.ColQ),
		)
		if i == 0 || k.Row != entries[i-1].K.Row {
			out = append(out, skv.ExactRow(k.Row), skv.RowRange(k.Row+"\x00", ""))
		}
	}
	return out
}

// collectUpTo drains at most limit entries, so an unbounded range costs
// no more than a bounded one.
func collectUpTo(t *testing.T, it iterator.SKVI, limit int) []skv.Entry {
	t.Helper()
	var out []skv.Entry
	for len(out) < limit && it.HasTop() {
		out = append(out, it.Top())
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestIterMatchesSliceIterRandom is the rfile read path's differential
// test: on random multi-family files with 1-entry blocks and blocks of
// more than 16 entries, every seek start yields exactly what
// iterator.SliceIter yields over the same entries — without a cache,
// through a cache small enough to evict during a scan, and from a warm
// cache — on a fresh iterator and on one re-seeked throughout.
func TestIterMatchesSliceIterRandom(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		seed      int64
		rows      int
		blockSize int
	}{
		{1, 20, 1},
		{2, 50, 600},
		{3, 50, 2048},
		{4, 30, 1 << 20},
	} {
		t.Run(fmt.Sprintf("seed%d_block%d", tc.seed, tc.blockSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			entries := randomFileEntries(rng, tc.rows)
			path := writeFile(t, entries, tc.blockSize)
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Room for about two of the largest blocks.
			var largest int64
			for _, b := range r.blocks {
				largest = max(largest, int64(b.len))
			}
			evicting, warmCache := cache.New(3*largest), cache.New(1<<30)
			readers := map[string]*Reader{"cold": r}
			for name, c := range map[string]*cache.BlockCache{"evicting": evicting, "warm": warmCache} {
				cr, err := OpenWithOptions(path, ReaderOptions{Cache: c})
				if err != nil {
					t.Fatal(err)
				}
				defer cr.Close()
				readers[name] = cr
			}
			if tc.blockSize == 1 && len(r.blocks) != len(entries) {
				t.Fatalf("%d blocks for %d entries, want one entry a block", len(r.blocks), len(entries))
			}
			if tc.blockSize > 1 && r.blocks[0].count <= 16 {
				t.Fatalf("first block holds %d entries, want more than 16", r.blocks[0].count)
			}
			if len(r.Families()) < 3 {
				t.Fatalf("file has families %v, want 3", r.Families())
			}
			warm := readers["warm"].Iter()
			if err := warm.Seek(skv.FullRange()); err != nil {
				t.Fatal(err)
			}
			if got := collectUpTo(t, warm, len(entries)+1); len(got) != len(entries) {
				t.Fatalf("full scan = %d entries, want %d", len(got), len(entries))
			}
			held := map[string]iterator.SKVI{}
			for name, r := range readers {
				held[name] = r.Iter()
			}
			for _, sr := range seekRanges(rng, entries) {
				ref := iterator.NewSliceIter(entries)
				if err := ref.Seek(sr); err != nil {
					t.Fatal(err)
				}
				want := collectUpTo(t, ref, limit)
				for name, r := range readers {
					for _, it := range []iterator.SKVI{r.Iter(), held[name]} {
						if err := it.Seek(sr); err != nil {
							t.Fatal(err)
						}
						got := collectUpTo(t, it, limit)
						if len(got) != len(want) {
							t.Fatalf("%s %+v: %d entries, want %d", name, sr, len(got), len(want))
						}
						for i := range got {
							if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
								t.Fatalf("%s %+v entry %d: %v=%q, want %v=%q", name, sr, i, got[i].K, got[i].V, want[i].K, want[i].V)
							}
						}
					}
				}
			}
			if evicting.Len() == 0 || evicting.Len() >= len(r.blocks) {
				t.Fatalf("evicting cache holds %d of %d blocks, want it to evict", evicting.Len(), len(r.blocks))
			}
			if warmCache.Misses() != int64(len(r.blocks)) {
				t.Fatalf("warm cache missed %d times, want once per block (%d)", warmCache.Misses(), len(r.blocks))
			}
		})
	}
}

// TestColdRowSeekAllocBytes pins what a block miss costs: an exact-row
// seek into an uncached block, drained to the end of its row,
// allocates less than 1.5 times the block's bytes — the block's string
// and value arena, not an entry per entry of the block.
func TestColdRowSeekAllocBytes(t *testing.T) {
	for _, perBlock := range []int{512, 4096} {
		t.Run(fmt.Sprint(perBlock), func(t *testing.T) {
			// Fixed-width entries, ten to a row, so a block holds exactly
			// perBlock entries.
			entries := make([]skv.Entry, 3*perBlock)
			for i := range entries {
				entries[i] = skv.Entry{
					K: skv.Key{Row: fmt.Sprintf("v%07d", i/10), ColF: "edge", ColQ: fmt.Sprintf("v%07d", i), Ts: 1},
					V: skv.Value("1"),
				}
			}
			entrySize := len(skv.EncodeEntry(nil, entries[0]))
			r, err := Open(writeFile(t, entries, perBlock*entrySize))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if r.blocks[1].count != perBlock {
				t.Fatalf("block 1 holds %d entries, want %d", r.blocks[1].count, perBlock)
			}
			// A row in the middle of block 1, whose entries all lie in it.
			row := entries[perBlock+perBlock/2+5].K.Row
			seek := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				it := r.Iter()
				if err := it.Seek(skv.ExactRow(row)); err != nil {
					t.Fatal(err)
				}
				n := 0
				for ; it.HasTop(); n++ {
					if err := it.Next(); err != nil {
						t.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				if n != 10 {
					t.Fatalf("row %s drained %d entries, want 10", row, n)
				}
				return after.TotalAlloc - before.TotalAlloc
			}
			// The Reader has no cache, so every seek misses. The first
			// sizes the pooled read buffer; a collection may drop the
			// pool, so the pin takes the least of a few seeks.
			seek()
			least := seek()
			for i := 0; i < 4; i++ {
				least = min(least, seek())
			}
			limit := 1.5 * float64(r.blocks[1].len)
			if float64(least) >= limit {
				t.Fatalf("cold row seek into a %d-byte block allocated %d bytes, want < %.0f", r.blocks[1].len, least, limit)
			}
			t.Logf("cold row seek: %d bytes for a %d-byte block (%.2f×)", least, r.blocks[1].len, float64(least)/float64(r.blocks[1].len))
		})
	}
}
