package iterator

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// operands are a multiply's two sides: at the remote Aᵀ (inner row →
// output row), b the hosted B (inner row → output column).
type operands struct{ at, b []skv.Entry }

// sorted orders both sides stably, so that entries with equal keys keep
// their order in every scan and the multiply is deterministic.
func (o operands) sorted() operands {
	for _, side := range [][]skv.Entry{o.at, o.b} {
		sort.SliceStable(side, func(i, j int) bool { return skv.Compare(side[i].K, side[j].K) < 0 })
	}
	return o
}

// multiply is the TwoTableIterator over the operands under ring, its
// remote side served by env.
func (o operands) multiply(env *countingEnv, ring semiring.Semiring) *TwoTableIterator {
	env.tables["AT"] = o.at
	return NewTwoTableIterator(NewSliceIter(o.b), NewRemoteSourceIterator("AT", env), ring)
}

// products is every partial product of the operands under ring, in the
// order the multiply emits them.
func (o operands) products(t *testing.T, ring semiring.Semiring) []skv.Entry {
	t.Helper()
	out, err := Collect(seeked(t, o.multiply(newCountingEnv(), ring)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// collidingOperands is a multiply of 80 inner rows into a 12 × 9 output,
// so most products collide.
func collidingOperands(rng *rand.Rand) operands {
	var o operands
	for i := 0; i < 80; i++ {
		inner := fmt.Sprintf("i%02d", i)
		for _, r := range rng.Perm(12)[:1+rng.Intn(4)] {
			o.at = append(o.at, e(inner, "", fmt.Sprintf("r%02d", r), 0, float64(1+rng.Intn(5))))
		}
		for _, c := range rng.Perm(9)[:1+rng.Intn(4)] {
			o.b = append(o.b, e(inner, "", fmt.Sprintf("c%02d", c), 0, float64(1+rng.Intn(5))))
		}
	}
	return o.sorted()
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

// cutGenerations drains a fold stage generation by generation, returning
// each generation and how many products had been consumed when it was
// cut: those emitted so far plus those counted folded.
func cutGenerations(t *testing.T, f *FoldIterator, env *countingEnv) (gens [][]skv.Entry, cuts []int) {
	t.Helper()
	emitted, folded := 0, env.folded
	if err := f.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	for f.HasTop() {
		gen := append([]skv.Entry(nil), f.TopRun()...)
		emitted += len(gen)
		gens, cuts = append(gens, gen), append(cuts, emitted+env.folded-folded)
		if err := f.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return gens, cuts
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
				o := collidingOperands(rand.New(rand.NewSource(7)))
				in := o.products(t, ring)
				env := newCountingEnv()
				gens, _ := cutGenerations(t, NewFoldIterator(o.multiply(env, ring), ring, budget, env), env)
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
					t.Fatal("a five-cell buffer over a colliding multiply folded nothing")
				}
				sameCells(t, foldCells(emitted, ring), foldCells(in, ring))
			})
		}
	}
}

// keyedFold is the fold stage keyed on skv.Key, as it was before cells
// were interned: the reference the interned stage must equal. It folds
// one generation's products and returns the generation as the stage
// emits it, with the number of products it absorbed.
func keyedFold(in []skv.Entry, ring semiring.Semiring) (gen []skv.Entry, folded int) {
	idx := map[skv.Key]int{}
	var acc []float64
	for _, en := range in {
		v, _ := skv.DecodeFloat(en.V)
		if i, dup := idx[en.K]; dup {
			acc[i] = ring.Add(acc[i], v)
			folded++
			continue
		}
		idx[en.K] = len(gen)
		gen = append(gen, skv.Entry{K: en.K})
		acc = append(acc, v)
	}
	for i, v := range acc {
		gen[i].V = skv.EncodeFloat(v)
	}
	slices.SortFunc(gen, func(a, b skv.Entry) int { return skv.Compare(a.K, b.K) })
	return gen, folded
}

// randomOperands is a multiply of 150 inner rows over a few dozen output
// row and column names of mixed length, so first-seen, length and key
// order all differ, drawn with heavy repetition so that cells tie, and
// with values that are sometimes zero. Generic operands also carry
// column families — entries of one inner row that differ only by family
// make products for one cell within the row — and, now and then, a value
// that does not decode, which the multiply drops before ⊗.
func randomOperands(rng *rand.Rand, generic bool) operands {
	fams := []string{""}
	if generic {
		fams = []string{"", "", "deg", "edge"}
	}
	entry := func(inner, prefix string, names int) skv.Entry {
		en := e(inner, fams[rng.Intn(len(fams))], fmt.Sprintf("%s%d", prefix, rng.Intn(names)), 0, float64(rng.Intn(9)-2)/4)
		if generic && rng.Intn(20) == 0 {
			en.V = skv.Value("x")
		}
		return en
	}
	var o operands
	for i := 0; i < 150; i++ {
		inner := fmt.Sprintf("i%03d", i)
		for n := 1 + rng.Intn(5); n > 0; n-- {
			o.at = append(o.at, entry(inner, "r", 40))
		}
		for n := 1 + rng.Intn(7); n > 0; n-- {
			o.b = append(o.b, entry(inner, "c", 120))
		}
	}
	return o.sorted()
}

func sameEntries(t *testing.T, what string, got, want []skv.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
			t.Fatalf("%s: entry %d is %v=%s, want %v=%s", what, i, got[i].K, got[i].V, want[i].K, want[i].V)
		}
	}
}

// TestFoldMatchesKeyedReference: the interned fold emits, generation for
// generation, exactly what the skv.Key-keyed fold makes of the same
// products — same keys in the same strictly ascending order, same value
// text, same fold count — under three semirings, at a budget that holds
// everything and at ones that cut many generations. The generic
// operands add column families and non-numeric values. Over a
// power-law multiply, the one-generation output equals the reference
// over the products the multiply emits as entries.
func TestFoldMatchesKeyedReference(t *testing.T) {
	for _, ringName := range []string{"plus.times", "min.plus", "or.and"} {
		ring, _ := semiring.ByName(ringName)
		for _, generic := range []bool{false, true} {
			for _, budget := range []int{1 << 30, 4096, 700, 1} {
				t.Run(fmt.Sprintf("%s/generic=%v/%dB", ringName, generic, budget), func(t *testing.T) {
					o := randomOperands(rand.New(rand.NewSource(int64(budget))), generic)
					in := o.products(t, ring)
					env := newCountingEnv()
					gens, cuts := cutGenerations(t, NewFoldIterator(o.multiply(env, ring), ring, budget, env), env)
					if budget < 1<<20 && len(gens) < 4 {
						t.Fatalf("%d generations, want several", len(gens))
					}
					if cuts[len(cuts)-1] != len(in) {
						t.Fatalf("generations consumed %d of %d products", cuts[len(cuts)-1], len(in))
					}
					from, folded := 0, 0
					for g, gen := range gens {
						want, n := keyedFold(in[from:cuts[g]], ring)
						sameEntries(t, fmt.Sprintf("generation %d", g), gen, want)
						for i := 1; i < len(gen); i++ {
							if skv.Compare(gen[i-1].K, gen[i].K) >= 0 {
								t.Fatalf("generation %d not strictly ascending at %d", g, i)
							}
						}
						from, folded = cuts[g], folded+n
					}
					if env.folded != folded {
						t.Fatalf("counted %d folded, reference %d", env.folded, folded)
					}
				})
			}
		}
		t.Run(ringName+"/twoTable", func(t *testing.T) {
			operand, _ := rmatOperand(6)
			o := operands{at: operand, b: operand}
			env := newCountingEnv()
			got, err := Collect(seeked(t, NewFoldIterator(o.multiply(env, ring), ring, 16<<20, env)))
			if err != nil {
				t.Fatal(err)
			}
			want, folded := keyedFold(o.products(t, ring), ring)
			sameEntries(t, "fold over TwoTable", got, want)
			if env.folded != folded {
				t.Fatalf("counted %d folded, reference %d", env.folded, folded)
			}
		})
	}
}

func seeked(t *testing.T, it SKVI) SKVI {
	t.Helper()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	return it
}

// TestFoldChargesInternedNames: with a small budget and many distinct
// names, generations are cut where the byte accounting says — every new
// cell costs foldCellOverhead, and every name its bytes plus
// foldNameOverhead once per pass, in the generation that first interns
// it — not where counting cells alone would cut them; a second pass
// re-interns and cuts the same way.
func TestFoldChargesInternedNames(t *testing.T) {
	var o operands // one product per inner row, each a new cell; rows recur, columns do not
	for i := 0; i < 400; i++ {
		inner := fmt.Sprintf("i%03d", i)
		o.at = append(o.at, e(inner, "", fmt.Sprintf("row%d", i%7), 0, 1))
		o.b = append(o.b, e(inner, "", fmt.Sprintf("c%d", i), 0, 1))
	}
	in := o.products(t, semiring.PlusTimes)
	const budget = 1000
	// The multiply interns a product's names as it decodes the product's
	// inner row: the first on Seek, every other on the Next past the
	// product before it, so that generation pays for them.
	predict := func(chargeNames bool) []int {
		var sizes []int
		seen := map[string]bool{}
		charge := func(en skv.Entry) (bytes int) {
			for nm, size := range map[string]int{"row " + en.K.Row: len(en.K.Row), "col " + en.K.ColQ: len(en.K.ColQ)} {
				if chargeNames && !seen[nm] {
					seen[nm] = true
					bytes += size + foldNameOverhead
				}
			}
			return bytes
		}
		bytes, n := charge(in[0]), 0
		for i := range in {
			bytes, n = bytes+foldCellOverhead, n+1
			if i+1 < len(in) {
				bytes += charge(in[i+1])
			}
			if bytes >= budget {
				sizes, bytes, n = append(sizes, n), 0, 0
			}
		}
		if n > 0 {
			sizes = append(sizes, n)
		}
		return sizes
	}
	want := predict(true)
	if fmt.Sprint(want) == fmt.Sprint(predict(false)) {
		t.Fatal("the input does not tell charged names from uncharged ones")
	}
	env := newCountingEnv()
	f := NewFoldIterator(o.multiply(env, semiring.PlusTimes), semiring.PlusTimes, budget, env)
	for pass := 0; pass < 2; pass++ {
		gens, _ := cutGenerations(t, f, env)
		var got []int
		for _, gen := range gens {
			got = append(got, len(gen))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pass %d: generation sizes %v, accounting predicts %v", pass, got, want)
		}
	}
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

// multiplyInto runs TwoTable → [fold →] RemoteWrite over the operand,
// with no fold stage when preAggBytes is 0, and returns the env holding
// what was written.
func multiplyInto(t testing.TB, operand []skv.Entry, ring semiring.Semiring, preAggBytes int) *countingEnv {
	env := newCountingEnv()
	env.tables["AT"] = operand
	tt := NewTwoTableIterator(NewSliceIter(operand), NewRemoteSourceIterator("AT", env), ring)
	sink := NewRemoteWriteIterator(tt, "C", 0, env)
	if preAggBytes > 0 {
		sink = NewPreAggRemoteWriteIterator(tt, "C", 0, preAggBytes, ring, env)
	}
	if err := sink.Seek(skv.FullRange()); err != nil {
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
	// sortedRow interns n distinct qualifiers in random order — so ids do
	// not follow key order — and returns them as a colQ-sorted row.
	sortedRow := func(n int, names *interner) []operand {
		seen := map[string]bool{}
		for len(seen) < n {
			seen[fmt.Sprintf("q%03d", rng.Intn(400))] = true
		}
		var qs []string
		for q := range seen {
			qs = append(qs, q)
		}
		var row []operand
		for _, i := range rng.Perm(len(qs)) {
			row = append(row, operand{id: names.id(qs[i]), v: float64(rng.Intn(3))}) // a third are 0
		}
		sort.Slice(row, func(i, j int) bool { return names.names[row[i].id] < names.names[row[j].id] })
		return row
	}
	for trial := 0; trial < 200; trial++ {
		tt := &TwoTableIterator{ring: semiring.PlusTimes}
		tt.aRow, tt.bRow = sortedRow(1+rng.Intn(12), &tt.names.rows), sortedRow(1+rng.Intn(12), &tt.names.cols)
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
			p, q := tt.names.key(tt.buf[i-1].cell), tt.names.key(tt.buf[i].cell)
			if skv.Compare(p, q) >= 0 {
				t.Fatalf("trial %d: product %d %v does not ascend from %v", trial, i, q, p)
			}
		}
	}
}

// TestTwoTableFoldAllocs pins the numeric hand-off: TwoTable → fold
// allocates per folded cell and per generation, never per ⊗ — counted
// both as allocations and as bytes per partial product.
func TestTwoTableFoldAllocs(t *testing.T) {
	operand, pp := rmatOperand(8)
	env := newCountingEnv()
	env.tables["AT"] = operand
	const runs = 3
	run := func() {
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
	}
	run() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytesPerPP := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs*pp)
	t.Logf("%.1f B/pp over %d partial products", bytesPerPP, pp)
	if bytesPerPP > 70 {
		t.Fatalf("%.1f bytes allocated per partial product, want ≤ 70", bytesPerPP)
	}
	if perPP := testing.AllocsPerRun(runs, run) / float64(pp); perPP > 0.1 {
		t.Fatalf("%.3f allocs/pp over %d partial products, want ≤ 0.1", perPP, pp)
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
