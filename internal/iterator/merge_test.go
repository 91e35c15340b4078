package iterator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphulo/internal/skv"
)

// TestMergeIterNextPastEndIsNoOp: Next on an exhausted merge (or one
// never given a top) leaves it exhausted, as on every other SKVI,
// instead of indexing an empty heap.
func TestMergeIterNextPastEndIsNoOp(t *testing.T) {
	for _, c := range []struct {
		name string
		new  func(...SKVI) *MergeIter
	}{{"plain", NewMergeIter}, {"dedup", NewDedupMergeIter}} {
		t.Run(c.name, func(t *testing.T) {
			m := c.new(
				NewSliceIter([]skv.Entry{e("a", "", "q", 1, 1)}),
				NewSliceIter(nil),
				NewSliceIter([]skv.Entry{e("a", "", "q", 1, 2)}),
			)
			if err := m.Seek(skv.FullRange()); err != nil {
				t.Fatal(err)
			}
			if _, err := Collect(m); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := m.Next(); err != nil {
					t.Fatalf("Next past the end: %v", err)
				}
				if m.HasTop() {
					t.Fatal("Next past the end produced a top")
				}
			}
			empty := c.new()
			if err := empty.Seek(skv.FullRange()); err != nil {
				t.Fatal(err)
			}
			if err := empty.Next(); err != nil || empty.HasTop() {
				t.Fatalf("Next on a merge of no sources: err %v, top %v", err, empty.HasTop())
			}
		})
	}
}

// tagged is an entry of a merge model and the index of its source.
type tagged struct {
	e   skv.Entry
	src int
}

// mergeModel is what a merge of srcs over rng must yield: every entry
// in the range, stably sorted by (key, source index), and with dedup
// only the first of each full key.
func mergeModel(srcs [][]skv.Entry, rng skv.Range, dedup bool) []skv.Entry {
	var all []tagged
	for s, entries := range srcs {
		for _, en := range entries {
			if rng.Contains(en.K) {
				all = append(all, tagged{en, s})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if c := skv.Compare(all[i].e.K, all[j].e.K); c != 0 {
			return c < 0
		}
		return all[i].src < all[j].src
	})
	var out []skv.Entry
	for i, x := range all {
		if dedup && i > 0 && all[i-1].e.K == x.e.K {
			continue
		}
		out = append(out, x.e)
	}
	return out
}

// randomRange is unbounded, half-bounded or bounded on each side, its
// bounds drawn from the same small row and column space as the keys.
func randomRange(rng *rand.Rand) skv.Range {
	key := func() skv.Key {
		return skv.Key{Row: string(rune('a' + rng.Intn(6))), ColQ: string(rune('a' + rng.Intn(3))), Ts: int64(rng.Intn(4))}
	}
	var r skv.Range
	if rng.Intn(2) == 0 {
		r.Start, r.HasStart = key(), true
	}
	if rng.Intn(2) == 0 {
		r.End, r.HasEnd = key(), true
	}
	return r
}

// TestMergeIterMatchesModel checks both merges against mergeModel on
// random sources: empty ones, a full key repeated across sources with
// different values, equal cells at different timestamps, bounded and
// unbounded ranges, and a re-Seek after a partial drain. Each value
// names its source and position, so the check sees which source won.
func TestMergeIterMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for trial := 0; trial < 400; trial++ {
		k := rng.Intn(7)
		srcs := make([][]skv.Entry, k)
		for s := range srcs {
			n := rng.Intn(25)
			if rng.Intn(4) == 0 {
				n = 0
			}
			seen := map[skv.Key]bool{}
			for p := 0; p < n; p++ {
				key := skv.Key{
					Row:  string(rune('a' + rng.Intn(6))),
					ColF: []string{"", "f"}[rng.Intn(2)],
					ColQ: string(rune('a' + rng.Intn(3))),
					Ts:   int64(1 + rng.Intn(3)),
				}
				if seen[key] {
					continue // one source holds a full key once, like a run
				}
				seen[key] = true
				srcs[s] = append(srcs[s], skv.Entry{K: key, V: skv.EncodeFloat(float64(s*1000 + p))})
			}
		}
		for _, dedup := range []bool{false, true} {
			iters := make([]SKVI, k)
			for s, entries := range srcs {
				iters[s] = NewSliceIter(entries)
			}
			m := NewMergeIter(iters...)
			if dedup {
				m = NewDedupMergeIter(iters...)
			}
			first := randomRange(rng)
			if err := m.Seek(first); err != nil {
				t.Fatal(err)
			}
			want := mergeModel(srcs, first, dedup)
			drain := rng.Intn(len(want) + 1)
			var got []skv.Entry
			for i := 0; i < drain && m.HasTop(); i++ {
				got = append(got, m.Top())
				if err := m.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if g, w := fmt.Sprint(keysOf(got), valsOf(got)), fmt.Sprint(keysOf(want[:drain]), valsOf(want[:drain])); g != w {
				t.Fatalf("trial %d dedup=%v range %v: first %d entries\n got %s\nwant %s", trial, dedup, first, drain, g, w)
			}
			second := randomRange(rng)
			if err := m.Seek(second); err != nil {
				t.Fatal(err)
			}
			got, err := Collect(m)
			if err != nil {
				t.Fatal(err)
			}
			want = mergeModel(srcs, second, dedup)
			if g, w := fmt.Sprint(keysOf(got), valsOf(got)), fmt.Sprint(keysOf(want), valsOf(want)); g != w {
				t.Fatalf("trial %d dedup=%v re-Seek %v\n got %s\nwant %s", trial, dedup, second, g, w)
			}
		}
	}
}

// BenchmarkMergeIter drains a dedup merge of k sorted sources of 4 096
// entries each, the keys dealt to the sources at random so the heap
// top changes source often, and reports ns per merged entry.
func BenchmarkMergeIter(b *testing.B) {
	const per = 4096
	for _, k := range []int{2, 6, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(k)))
			srcs := make([][]skv.Entry, k)
			for i := 0; i < k*per; i++ {
				s := rng.Intn(k)
				for len(srcs[s]) == per {
					s = (s + 1) % k
				}
				srcs[s] = append(srcs[s], skv.Entry{
					K: skv.Key{Row: fmt.Sprintf("v%08d", i/4), ColF: "edge", ColQ: fmt.Sprintf("v%08d", i%4), Ts: 1},
					V: skv.EncodeFloat(1),
				})
			}
			iters := make([]SKVI, k)
			for s, entries := range srcs {
				iters[s] = NewSliceIter(entries)
			}
			m := NewDedupMergeIter(iters...)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				if err := m.Seek(skv.FullRange()); err != nil {
					b.Fatal(err)
				}
				for m.HasTop() {
					n++
					if err := m.Next(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if n != b.N*k*per {
				b.Fatalf("merged %d entries, want %d", n, b.N*k*per)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/entry")
		})
	}
}
