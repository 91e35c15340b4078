package iterator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// countingEnv is fakeEnv plus the Counters the fold stage reports to.
type countingEnv struct {
	*fakeEnv
	folded, written int
}

func newCountingEnv() *countingEnv { return &countingEnv{fakeEnv: newFakeEnv()} }

func (c *countingEnv) CountRangePruned(int) {}
func (c *countingEnv) CountFolded(n int)    { c.folded += n }
func (c *countingEnv) WriteEntries(table string, entries []skv.Entry) error {
	c.written += len(entries)
	return c.fakeEnv.WriteEntries(table, entries)
}

// unsortedIter replays entries in the given order: the shape of a
// partial-product stream, which is not sorted across inner rows.
type unsortedIter struct {
	entries []skv.Entry
	pos     int
}

func (u *unsortedIter) Seek(skv.Range) error { u.pos = 0; return nil }
func (u *unsortedIter) HasTop() bool         { return u.pos < len(u.entries) }
func (u *unsortedIter) Top() skv.Entry       { return u.entries[u.pos] }
func (u *unsortedIter) Next() error          { u.pos++; return nil }

// collidingStream is n numeric entries drawn over a small cell space in
// random order, so most of them collide.
func collidingStream(rng *rand.Rand, n int) []skv.Entry {
	out := make([]skv.Entry, n)
	for i := range out {
		out[i] = e(fmt.Sprintf("r%02d", rng.Intn(12)), "", fmt.Sprintf("c%02d", rng.Intn(9)), 0, float64(1+rng.Intn(5)))
	}
	return out
}

// foldCells ⊕-folds entries per logical cell the way the sink's own
// combiner would.
func foldCells(entries []skv.Entry, ring semiring.Semiring) map[skv.Key]float64 {
	out := map[skv.Key]float64{}
	for _, en := range entries {
		k := en.K
		k.Ts = 0
		v, ok := skv.DecodeFloat(en.V)
		if !ok {
			continue
		}
		if prev, seen := out[k]; seen {
			v = ring.Add(prev, v)
		}
		out[k] = v
	}
	return out
}

func sameCells(t *testing.T, got, want map[skv.Key]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Fatalf("cell %v = %v (present %v), want %v", k, g, ok, w)
		}
	}
}

// generations drains a sought fold stage run by run.
func generations(t *testing.T, f *FoldIterator) [][]skv.Entry {
	t.Helper()
	var gens [][]skv.Entry
	for f.HasTop() {
		gens = append(gens, append([]skv.Entry(nil), f.TopRun()...))
		if err := f.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return gens
}

// TestFoldSpillAtCapacity: a budget of a few cells forces many
// generations; each is strictly ascending, every product is either
// emitted or counted as folded, and the sink's ⊕ over what was emitted
// equals folding everything at once — under ⊕ that is not plain
// addition too.
func TestFoldSpillAtCapacity(t *testing.T) {
	for _, ringName := range []string{"plus.times", "min.plus", "or.and"} {
		for _, budget := range []int{1, 5 * (6 + foldCellOverhead)} {
			t.Run(fmt.Sprintf("%s/%dB", ringName, budget), func(t *testing.T) {
				ring, _ := semiring.ByName(ringName)
				in := collidingStream(rand.New(rand.NewSource(7)), 600)
				env := newCountingEnv()
				f := NewFoldIterator(&unsortedIter{entries: in}, ring, budget, env)
				if err := f.Seek(skv.FullRange()); err != nil {
					t.Fatal(err)
				}
				gens := generations(t, f)
				if len(gens) < 20 {
					t.Fatalf("budget %d B produced %d generations, want many", budget, len(gens))
				}
				var emitted []skv.Entry
				for g, gen := range gens {
					for i := 1; i < len(gen); i++ {
						if skv.Compare(gen[i-1].K, gen[i].K) >= 0 {
							t.Fatalf("generation %d not strictly ascending at %d: %v then %v", g, i, gen[i-1].K, gen[i].K)
						}
					}
					emitted = append(emitted, gen...)
				}
				if len(emitted)+env.folded != len(in) {
					t.Fatalf("emitted %d + folded %d != %d products", len(emitted), env.folded, len(in))
				}
				if budget > 1 && env.folded == 0 {
					t.Fatal("a five-cell buffer over a colliding stream folded nothing")
				}
				sameCells(t, foldCells(emitted, ring), foldCells(in, ring))
			})
		}
	}
}

// TestFoldPassesNonNumericThrough: values that do not decode cannot
// fold; they come out as they went in, uncounted.
func TestFoldPassesNonNumericThrough(t *testing.T) {
	text := func(row, v string) skv.Entry {
		return skv.Entry{K: skv.Key{Row: row, ColQ: "c", Ts: 3}, V: skv.Value(v)}
	}
	in := []skv.Entry{e("b", "", "c", 0, 2), text("a", "x"), e("b", "", "c", 0, 5), text("a", "x"), text("c", "y")}
	env := newCountingEnv()
	f := NewFoldIterator(&unsortedIter{entries: in}, semiring.PlusTimes, 1<<20, env)
	if err := f.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, en := range got {
		if _, ok := skv.DecodeFloat(en.V); !ok {
			texts = append(texts, en.K.Row+"="+string(en.V))
			if en.K.Ts != 3 {
				t.Fatalf("pass-through entry %v lost its timestamp", en.K)
			}
		}
	}
	if fmt.Sprint(texts) != "[a=x a=x c=y]" {
		t.Fatalf("non-numeric entries came out as %v", texts)
	}
	if env.folded != 1 || len(got) != 4 {
		t.Fatalf("folded %d, emitted %d; want 1 folded (b/c), 4 emitted", env.folded, len(got))
	}
	sameCells(t, foldCells(got, semiring.PlusTimes), map[skv.Key]float64{{Row: "b", ColQ: "c"}: 7})
}

// rmatOperand is the adjacency of a small power-law graph as sorted
// entries — symmetric, so it serves as both Aᵀ and B — and the partial
// products its self-multiply forms.
func rmatOperand(scale int) ([]skv.Entry, int) {
	g := gen.Dedup(gen.RMAT(gen.Graph500(scale, 5)))
	deg := map[int]int{}
	var entries []skv.Entry
	for _, ed := range g.Edges {
		name := func(v int) string { return fmt.Sprintf("v%06d", v) }
		entries = append(entries, e(name(ed.U), "", name(ed.V), 1, 1), e(name(ed.V), "", name(ed.U), 1, 1))
		deg[ed.U]++
		deg[ed.V]++
	}
	sort.Slice(entries, func(i, j int) bool { return skv.Compare(entries[i].K, entries[j].K) < 0 })
	pp := 0
	for _, d := range deg {
		pp += d * d
	}
	return entries, pp
}

// multiplyInto runs TwoTable → [fold →] RemoteWrite over the operand and
// returns the env holding what was written.
func multiplyInto(t testing.TB, operand []skv.Entry, ring semiring.Semiring, preAggBytes int) *countingEnv {
	env := newCountingEnv()
	env.tables["AT"] = operand
	tt := NewTwoTableIterator(NewSliceIter(operand), NewRemoteSourceIterator("AT", env), ring)
	if err := NewPreAggRemoteWriteIterator(tt, "C", 0, preAggBytes, ring, env).Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	return env
}

// TestFoldOnEqualsOff: the multiply writes the same cells with the fold
// stage as without it, at a budget that never spills and at one that
// spills constantly, and every product is written or counted folded.
func TestFoldOnEqualsOff(t *testing.T) {
	operand, pp := rmatOperand(6)
	for _, ringName := range []string{"plus.times", "min.plus", "or.and"} {
		ring, _ := semiring.ByName(ringName)
		off := multiplyInto(t, operand, ring, 0)
		if off.written != pp || off.folded != 0 {
			t.Fatalf("%s: unfolded multiply wrote %d, folded %d; want %d, 0", ringName, off.written, off.folded, pp)
		}
		want := foldCells(off.writes["C"], ring)
		for _, budget := range []int{1 << 20, 2048} {
			on := multiplyInto(t, operand, ring, budget)
			if on.written+on.folded != pp {
				t.Fatalf("%s/%d: wrote %d + folded %d != %d products", ringName, budget, on.written, on.folded, pp)
			}
			if on.written >= off.written {
				t.Fatalf("%s/%d: fold stage did not shrink the write volume (%d vs %d)", ringName, budget, on.written, off.written)
			}
			sameCells(t, foldCells(on.writes["C"], ring), want)
		}
	}
}

// TestTwoTableCrossAscendsWithoutSort: over colQ-sorted operand rows the
// nested loop alone emits one inner row's products in key order — zero
// products included, which only leave gaps.
func TestTwoTableCrossAscendsWithoutSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sortedRow := func(n int) []operand {
		seen := map[string]bool{}
		for len(seen) < n {
			seen[fmt.Sprintf("q%03d", rng.Intn(400))] = true
		}
		var row []operand
		for q := range seen {
			row = append(row, operand{colQ: q, v: float64(rng.Intn(3))}) // a third are 0
		}
		sort.Slice(row, func(i, j int) bool { return row[i].colQ < row[j].colQ })
		return row
	}
	for trial := 0; trial < 200; trial++ {
		tt := &TwoTableIterator{ring: semiring.PlusTimes, aRow: sortedRow(1 + rng.Intn(12)), bRow: sortedRow(1 + rng.Intn(12))}
		tt.cross()
		nonZero := 0
		for _, a := range tt.aRow {
			for _, b := range tt.bRow {
				if a.v*b.v != 0 {
					nonZero++
				}
			}
		}
		if len(tt.buf) != nonZero {
			t.Fatalf("trial %d: %d products, want %d non-zero", trial, len(tt.buf), nonZero)
		}
		for i := 1; i < len(tt.buf); i++ {
			p, q := tt.buf[i-1], tt.buf[i]
			if skv.Compare(skv.Key{Row: p.row, ColQ: p.colQ}, skv.Key{Row: q.row, ColQ: q.colQ}) >= 0 {
				t.Fatalf("trial %d: product %d (%s,%s) does not ascend from (%s,%s)", trial, i, q.row, q.colQ, p.row, p.colQ)
			}
		}
	}
}

// TestTwoTableFoldAllocs pins the numeric hand-off: TwoTable → fold
// allocates per folded cell and per generation, never per ⊗.
func TestTwoTableFoldAllocs(t *testing.T) {
	operand, pp := rmatOperand(8)
	env := newCountingEnv()
	env.tables["AT"] = operand
	allocs := testing.AllocsPerRun(3, func() {
		tt := NewTwoTableIterator(NewSliceIter(operand), NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
		f := NewFoldIterator(tt, semiring.PlusTimes, 16<<20, env)
		if err := f.Seek(skv.FullRange()); err != nil {
			t.Fatal(err)
		}
		for f.HasTop() {
			f.TopRun()
			if err := f.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perPP := allocs / float64(pp); perPP > 0.1 {
		t.Fatalf("%.0f allocations for %d partial products = %.3f allocs/pp, want ≤ 0.1", allocs, pp, perPP)
	}
}

func BenchmarkTwoTableFoldWrite(b *testing.B) {
	operand, pp := rmatOperand(8)
	env := newFakeEnv()
	env.tables["AT"] = operand
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := NewTwoTableIterator(NewSliceIter(operand), NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
		if err := NewPreAggRemoteWriteIterator(tt, "C", 0, 16<<20, semiring.PlusTimes, discardWrites{env}).Seek(skv.FullRange()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pp), "ns/pp")
}

// discardWrites keeps nothing, so the benchmark times the iterators
// alone.
type discardWrites struct{ Env }

func (discardWrites) WriteEntries(string, []skv.Entry) error { return nil }
