package iterator

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

func e(row, cf, cq string, ts int64, v float64) skv.Entry {
	return skv.Entry{K: skv.Key{Row: row, ColF: cf, ColQ: cq, Ts: ts}, V: skv.EncodeFloat(v)}
}

func keysOf(entries []skv.Entry) []string {
	out := make([]string, len(entries))
	for i, en := range entries {
		out[i] = fmt.Sprintf("%s/%s/%s@%d", en.K.Row, en.K.ColF, en.K.ColQ, en.K.Ts)
	}
	return out
}

func valsOf(entries []skv.Entry) []float64 {
	out := make([]float64, len(entries))
	for i, en := range entries {
		out[i], _ = skv.DecodeFloat(en.V)
	}
	return out
}

func TestSliceIterSortsAndSeeks(t *testing.T) {
	it := NewSliceIter([]skv.Entry{
		e("c", "", "x", 1, 3),
		e("a", "", "x", 1, 1),
		e("b", "", "x", 1, 2),
	})
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(it)
	if v := valsOf(got); v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("not sorted: %v", v)
	}
	if err := it.Seek(skv.RowRange("b", "c")); err != nil {
		t.Fatal(err)
	}
	got, _ = Collect(it)
	if len(got) != 1 || got[0].K.Row != "b" {
		t.Fatalf("range seek wrong: %v", keysOf(got))
	}
}

func TestMergeIter(t *testing.T) {
	a := NewSliceIter([]skv.Entry{e("a", "", "1", 1, 1), e("c", "", "1", 1, 3)})
	b := NewSliceIter([]skv.Entry{e("b", "", "1", 1, 2), e("d", "", "1", 1, 4)})
	c := NewSliceIter(nil)
	m := NewMergeIter(a, b, c)
	if err := m.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(m)
	want := []float64{1, 2, 3, 4}
	if v := valsOf(got); len(v) != 4 || v[0] != 1 || v[1] != 2 || v[2] != 3 || v[3] != 4 {
		t.Fatalf("merge order wrong: %v want %v", v, want)
	}
}

func TestMergeIterInterleavedRows(t *testing.T) {
	// Entries for the same cell from different sources must come out in
	// timestamp-descending order.
	a := NewSliceIter([]skv.Entry{e("r", "", "q", 5, 50)})
	b := NewSliceIter([]skv.Entry{e("r", "", "q", 9, 90), e("r", "", "q", 1, 10)})
	m := NewMergeIter(a, b)
	m.Seek(skv.FullRange())
	got, _ := Collect(m)
	if v := valsOf(got); v[0] != 90 || v[1] != 50 || v[2] != 10 {
		t.Fatalf("version order wrong: %v", v)
	}
}

func TestVersioningIterKeepsNewest(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("r", "", "q", 9, 90),
		e("r", "", "q", 5, 50),
		e("r", "", "q", 1, 10),
		e("s", "", "q", 3, 30),
	})
	v := NewVersioningIter(src, 1)
	v.Seek(skv.FullRange())
	got, _ := Collect(v)
	if vals := valsOf(got); len(vals) != 2 || vals[0] != 90 || vals[1] != 30 {
		t.Fatalf("versioning wrong: %v", vals)
	}
}

func TestVersioningIterMaxTwo(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("r", "", "q", 9, 90),
		e("r", "", "q", 5, 50),
		e("r", "", "q", 1, 10),
	})
	v := NewVersioningIter(src, 2)
	v.Seek(skv.FullRange())
	got, _ := Collect(v)
	if vals := valsOf(got); len(vals) != 2 || vals[0] != 90 || vals[1] != 50 {
		t.Fatalf("maxVersions=2 wrong: %v", vals)
	}
}

func TestCombinerIterSums(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("r", "", "q", 9, 1),
		e("r", "", "q", 5, 2),
		e("r", "", "q", 1, 4),
		e("s", "", "q", 1, 10),
	})
	c := NewCombinerIter(src, semiring.PlusMonoid)
	c.Seek(skv.FullRange())
	got, _ := Collect(c)
	if vals := valsOf(got); len(vals) != 2 || vals[0] != 7 || vals[1] != 10 {
		t.Fatalf("summing combiner wrong: %v", vals)
	}
	// Key of the combined entry is the newest version's key.
	if got[0].K.Ts != 9 {
		t.Fatalf("combined ts = %d, want 9", got[0].K.Ts)
	}
}

func TestCombinerIterMin(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("r", "", "q", 3, 7), e("r", "", "q", 2, 3), e("r", "", "q", 1, 5),
	})
	c := NewCombinerIter(src, semiring.MinMonoid)
	c.Seek(skv.FullRange())
	got, _ := Collect(c)
	if vals := valsOf(got); len(vals) != 1 || vals[0] != 3 {
		t.Fatalf("min combiner wrong: %v", vals)
	}
}

// TestCombinerIterSingleVersion: a cell with one numeric version comes
// out with its value bytes as stored (not re-encoded: "2.50" stays
// "2.50"), one with a single non-numeric version still reads as the
// monoid identity under every combiner, and a cell with several
// versions is still folded and encoded.
func TestCombinerIterSingleVersion(t *testing.T) {
	raw := func(row string, ts int64, v string) skv.Entry {
		return skv.Entry{K: skv.Key{Row: row, ColQ: "q", Ts: ts}, V: skv.Value(v)}
	}
	for _, tc := range []struct {
		monoid   semiring.Monoid
		identity string
	}{
		{semiring.PlusMonoid, "0"},
		{semiring.MinMonoid, "+Inf"},
		{semiring.MaxMonoid, "-Inf"},
	} {
		src := NewSliceIter([]skv.Entry{
			raw("a", 1, "2.50"),
			raw("b", 1, "label"),
			raw("c", 2, "2.50"), raw("c", 1, "label"),
		})
		c := NewCombinerIter(src, tc.monoid)
		if err := c.Seek(skv.FullRange()); err != nil {
			t.Fatal(err)
		}
		got, err := Collect(c)
		if err != nil {
			t.Fatal(err)
		}
		var vals []string
		for _, e := range got {
			vals = append(vals, string(e.V))
		}
		if want := []string{"2.50", tc.identity, "2.5"}; !reflect.DeepEqual(vals, want) {
			t.Errorf("identity %s: values %q, want %q", tc.identity, vals, want)
		}
	}
}

func TestFilterAndColumnFilter(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("a", "deg", "q", 1, 5),
		e("b", "edge", "q", 1, 6),
		e("c", "deg", "q", 1, 7),
	})
	f := NewColumnFilterIter(src, "deg")
	f.Seek(skv.FullRange())
	got, _ := Collect(f)
	if len(got) != 2 || got[0].K.Row != "a" || got[1].K.Row != "c" {
		t.Fatalf("column filter wrong: %v", keysOf(got))
	}
}

func TestApplyIterDropsZeros(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("a", "", "q", 1, 2), e("b", "", "q", 1, 3), e("c", "", "q", 1, 2),
	})
	a := NewApplyIter(src, semiring.EqualsIndicator(2))
	a.Seek(skv.FullRange())
	got, _ := Collect(a)
	if vals := valsOf(got); len(vals) != 2 || vals[0] != 1 || vals[1] != 1 {
		t.Fatalf("apply wrong: %v", vals)
	}
	if got[0].K.Row != "a" || got[1].K.Row != "c" {
		t.Fatalf("apply kept wrong entries: %v", keysOf(got))
	}
}

func TestBuildStackOrdering(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("r", "", "q", 2, 5),
		e("r", "", "q", 1, 7),
	})
	// sum first (priority 10), then scale ×2 (priority 20): (5+7)*2 = 24.
	stack, err := BuildStack(src, []Setting{
		{Name: "scale", Priority: 20, Opts: map[string]string{"factor": "2"}},
		{Name: "sum", Priority: 10},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	stack.Seek(skv.FullRange())
	got, _ := Collect(stack)
	if vals := valsOf(got); len(vals) != 1 || vals[0] != 24 {
		t.Fatalf("stack result: %v, want [24]", vals)
	}
}

func TestBuildStackUnknownName(t *testing.T) {
	if _, err := BuildStack(NewSliceIter(nil), []Setting{{Name: "nosuch"}}, nil); err == nil {
		t.Fatalf("expected error for unknown iterator")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Register("versioning", nil)
}

// fakeEnv provides in-memory tables for the Graphulo iterator tests.
type fakeEnv struct {
	tables map[string][]skv.Entry
	writes map[string][]skv.Entry
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{tables: map[string][]skv.Entry{}, writes: map[string][]skv.Entry{}}
}

func (f *fakeEnv) OpenScanner(table string, rng skv.Range) (SKVI, error) {
	entries, ok := f.tables[table]
	if !ok {
		return nil, fmt.Errorf("no table %q", table)
	}
	it := NewSliceIter(entries)
	if err := it.Seek(rng); err != nil {
		return nil, err
	}
	return it, nil
}

func (f *fakeEnv) WriteEntries(table string, entries []skv.Entry) error {
	f.writes[table] = append(f.writes[table], entries...)
	return nil
}

func TestRemoteSourceIterator(t *testing.T) {
	env := newFakeEnv()
	env.tables["T"] = []skv.Entry{e("a", "", "x", 1, 1), e("b", "", "y", 1, 2)}
	r := NewRemoteSourceIterator("T", env)
	if err := r.Seek(skv.RowRange("b", "")); err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(r)
	if len(got) != 1 || got[0].K.Row != "b" {
		t.Fatalf("remote source wrong: %v", keysOf(got))
	}
}

// TestTwoTableMultiply checks C = Aᵀ·B entry-by-entry on a small case.
func TestTwoTableMultiply(t *testing.T) {
	// A is 2×3 (rows a1,a2; inner i1..i3): stored transposed in AT.
	//   A = [1 2 0; 0 3 4] → AT rows are inner indices.
	env := newFakeEnv()
	env.tables["AT"] = []skv.Entry{
		e("i1", "", "a1", 1, 1),
		e("i2", "", "a1", 1, 2),
		e("i2", "", "a2", 1, 3),
		e("i3", "", "a2", 1, 4),
	}
	// B is 3×2 (inner i1..i3 × cols b1,b2): B = [5 0; 6 7; 0 8].
	bEntries := []skv.Entry{
		e("i1", "", "b1", 1, 5),
		e("i2", "", "b1", 1, 6),
		e("i2", "", "b2", 1, 7),
		e("i3", "", "b2", 1, 8),
	}
	tt := NewTwoTableIterator(NewSliceIter(bEntries), NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
	if err := tt.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(tt)
	// Partial products, summed manually:
	// C = AᵀᵀB? No: C = Aᵀ·B with A as given is (3×2)ᵀ... here C = A·B
	// since AT stores Aᵀ by row: C[a][b] = Σ_i A[a][i]·B[i][b].
	// C[a1][b1] = 1·5 + 2·6 = 17; C[a1][b2] = 2·7 = 14;
	// C[a2][b1] = 3·6 = 18;      C[a2][b2] = 3·7 + 4·8 = 53.
	sums := map[string]float64{}
	for _, en := range got {
		v, _ := skv.DecodeFloat(en.V)
		sums[en.K.Row+","+en.K.ColQ] += v
	}
	want := map[string]float64{"a1,b1": 17, "a1,b2": 14, "a2,b1": 18, "a2,b2": 53}
	for k, w := range want {
		if sums[k] != w {
			t.Fatalf("C[%s] = %v, want %v (all: %v)", k, sums[k], w, sums)
		}
	}
	if len(sums) != len(want) {
		t.Fatalf("extra outputs: %v", sums)
	}
}

func TestTwoTableDisjointRows(t *testing.T) {
	env := newFakeEnv()
	env.tables["AT"] = []skv.Entry{e("i1", "", "a", 1, 1)}
	b := NewSliceIter([]skv.Entry{e("i2", "", "b", 1, 1)})
	tt := NewTwoTableIterator(b, NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
	tt.Seek(skv.FullRange())
	if tt.HasTop() {
		t.Fatalf("disjoint inner rows must produce nothing")
	}
}

func TestRemoteWriteIterator(t *testing.T) {
	env := newFakeEnv()
	src := NewSliceIter([]skv.Entry{
		e("a", "", "x", 1, 1), e("b", "", "y", 1, 2), e("c", "", "z", 1, 3),
	})
	w := NewRemoteWriteIterator(src, "OUT", 2, env)
	if err := w.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	if len(env.writes["OUT"]) != 3 {
		t.Fatalf("wrote %d entries, want 3", len(env.writes["OUT"]))
	}
	if !w.HasTop() {
		t.Fatalf("expected monitoring entry")
	}
	if v, _ := skv.DecodeFloat(w.Top().V); v != 3 {
		t.Fatalf("monitor count = %v, want 3", v)
	}
	w.Next()
	if w.HasTop() {
		t.Fatalf("monitor entry should appear once")
	}
}

// Property: merging k random sorted streams yields a globally sorted
// stream with all entries present.
func TestQuickMergeComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var all []skv.Entry
		var sources []SKVI
		for s := 0; s < 1+rng.Intn(4); s++ {
			var entries []skv.Entry
			for i := 0; i < rng.Intn(20); i++ {
				entries = append(entries, e(
					string(rune('a'+rng.Intn(5))), "",
					string(rune('a'+rng.Intn(3))),
					int64(rng.Intn(5)), float64(rng.Intn(100))))
			}
			all = append(all, entries...)
			sources = append(sources, NewSliceIter(entries))
		}
		m := NewMergeIter(sources...)
		if err := m.Seek(skv.FullRange()); err != nil {
			return false
		}
		got, err := Collect(m)
		if err != nil || len(got) != len(all) {
			return false
		}
		for i := 0; i+1 < len(got); i++ {
			if skv.Compare(got[i].K, got[i+1].K) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: TwoTable multiply matches a brute-force reference on random
// small tables.
func TestQuickTwoTableMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inner := []string{"i0", "i1", "i2"}
		arows := []string{"a0", "a1"}
		bcols := []string{"b0", "b1"}
		aVals := map[[2]string]float64{}
		bVals := map[[2]string]float64{}
		var atEntries, bEntries []skv.Entry
		for _, i := range inner {
			for _, a := range arows {
				if rng.Intn(2) == 0 {
					v := float64(1 + rng.Intn(4))
					aVals[[2]string{a, i}] = v
					atEntries = append(atEntries, e(i, "", a, 1, v))
				}
			}
			for _, b := range bcols {
				if rng.Intn(2) == 0 {
					v := float64(1 + rng.Intn(4))
					bVals[[2]string{i, b}] = v
					bEntries = append(bEntries, e(i, "", b, 1, v))
				}
			}
		}
		env := newFakeEnv()
		sort.Slice(atEntries, func(x, y int) bool { return skv.Compare(atEntries[x].K, atEntries[y].K) < 0 })
		env.tables["AT"] = atEntries
		tt := NewTwoTableIterator(NewSliceIter(bEntries), NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
		if err := tt.Seek(skv.FullRange()); err != nil {
			return false
		}
		got, err := Collect(tt)
		if err != nil {
			return false
		}
		sums := map[[2]string]float64{}
		for _, en := range got {
			v, _ := skv.DecodeFloat(en.V)
			sums[[2]string{en.K.Row, en.K.ColQ}] += v
		}
		for _, a := range arows {
			for _, b := range bcols {
				want := 0.0
				for _, i := range inner {
					want += aVals[[2]string{a, i}] * bVals[[2]string{i, b}]
				}
				if sums[[2]string{a, b}] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
