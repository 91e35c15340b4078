package iterator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// randomSymmetric is a random symmetric adjacency table over vertices,
// self-loops included, sorted. An edge's value is 1, 2 (a multigraph's
// repeated edge), 0 or non-numeric, and it is stored under family "",
// "edge" or both — in both orientations alike.
func randomSymmetric(rng *rand.Rand, vertices []string, density float64) []skv.Entry {
	var out []skv.Entry
	for i, u := range vertices {
		for _, v := range vertices[i:] {
			if rng.Float64() >= density {
				continue
			}
			val := []skv.Value{skv.EncodeFloat(1), skv.EncodeFloat(1), skv.EncodeFloat(2), skv.EncodeFloat(0), skv.Value("x")}[rng.Intn(5)]
			fams := [][]string{{""}, {"edge"}, {"", "edge"}}[rng.Intn(3)]
			for _, f := range fams {
				out = append(out, skv.Entry{K: skv.Key{Row: u, ColF: f, ColQ: v}, V: val})
				if u != v {
					out = append(out, skv.Entry{K: skv.Key{Row: v, ColF: f, ColQ: u}, V: val})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return skv.Compare(out[i].K, out[j].K) < 0 })
	return out
}

// filteredProduct is the support's reference: the unmasked product
// Aᵀ ⊕.⊗ A under plus.and, ⊕-folded, then filtered to the cells stored
// in A (any value, any family).
func filteredProduct(t *testing.T, a []skv.Entry) map[skv.Key]float64 {
	t.Helper()
	env := newFakeEnv()
	env.tables["A"] = a
	ring := semiring.PlusAnd
	out, err := Collect(seeked(t, NewFoldIterator(NewTwoTableIterator(NewSliceIter(a), NewRemoteSourceIterator("A", env), ring), ring, 16<<20, env)))
	if err != nil {
		t.Fatal(err)
	}
	stored := map[skv.Key]bool{}
	for _, en := range a {
		stored[skv.Key{Row: en.K.Row, ColQ: en.K.ColQ}] = true
	}
	want := map[skv.Key]float64{}
	for k, v := range foldCells(out, ring) {
		if stored[k] {
			want[k] = v
		}
	}
	return want
}

// supportCells runs the support pass over each hosted row band in turn
// and returns its cells, failing if a pass's output does not ascend or
// a cell is emitted twice.
func supportCells(t *testing.T, env Env, hosted []skv.Entry, bands []skv.Range) map[skv.Key]float64 {
	t.Helper()
	got := map[skv.Key]float64{}
	for _, band := range bands {
		s := NewSupportIterator(NewSliceIter(hosted), "A", []string{"", "edge"}, env)
		if err := s.Seek(band); err != nil {
			t.Fatal(err)
		}
		entries, err := Collect(s)
		if err != nil {
			t.Fatal(err)
		}
		for i, en := range entries {
			if i > 0 && skv.Compare(entries[i-1].K, en.K) >= 0 {
				t.Fatalf("pass over %+v: %v follows %v", band, en.K, entries[i-1].K)
			}
			if _, dup := got[en.K]; dup {
				t.Fatalf("cell %v emitted twice", en.K)
			}
			v, ok := skv.DecodeFloat(en.V)
			if !ok {
				t.Fatalf("cell %v carries %q", en.K, en.V)
			}
			got[en.K] = v
		}
	}
	return got
}

// tabletEnv serves each table as several tablets merged into one
// stream, and counts the scans opened per table.
type tabletEnv struct {
	tablets map[string][][]skv.Entry
	opens   map[string][]skv.Range
}

func (te *tabletEnv) OpenScanner(table string, rng skv.Range) (SKVI, error) {
	parts, ok := te.tablets[table]
	if !ok {
		return nil, fmt.Errorf("no table %q", table)
	}
	te.opens[table] = append(te.opens[table], rng)
	var srcs []SKVI
	for _, p := range parts {
		srcs = append(srcs, NewSliceIter(p))
	}
	m := NewMergeIter(srcs...)
	return m, m.Seek(rng)
}

func (te *tabletEnv) WriteEntries(string, []skv.Entry) error { return nil }

// splitRows cuts sorted entries into tablets at the given row splits.
func splitRows(entries []skv.Entry, splits ...string) [][]skv.Entry {
	parts := make([][]skv.Entry, len(splits)+1)
	for _, en := range entries {
		i := sort.SearchStrings(splits, en.K.Row)
		if i < len(splits) && splits[i] == en.K.Row {
			i++ // a split row starts the right-hand tablet
		}
		parts[i] = append(parts[i], en)
	}
	return parts
}

// TestTwoTableMaskedEqualsFilteredProduct: the masked product
// A ⊕.⊗ A ⟨A⟩, formed by the support pass, equals the TwoTable product
// Aᵀ ⊕.⊗ A under plus.and folded and then filtered to A's stored cells —
// on random symmetric tables holding multigraph (2), zero and
// non-numeric values and edges stored under both band families, in one
// pass over one tablet and in three passes over three, each cell formed
// once.
func TestTwoTableMaskedEqualsFilteredProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vertices := names("v", 12)
	nonEmpty := 0
	for trial := 0; trial < 40; trial++ {
		a := randomSymmetric(rng, vertices, []float64{0.2, 0.4, 0.7, 1}[trial%4])
		want := filteredProduct(t, a)
		if len(want) > 0 {
			nonEmpty++
		}
		env := newFakeEnv()
		env.tables["A"] = a
		sameCells(t, supportCells(t, env, a, []skv.Range{skv.FullRange()}), want)
		te := &tabletEnv{tablets: map[string][][]skv.Entry{"A": splitRows(a, "v04", "v08")}, opens: map[string][]skv.Range{}}
		sameCells(t, supportCells(t, te, a, threeBands), want)
	}
	if nonEmpty < 30 {
		t.Fatalf("only %d of 40 trials had any support", nonEmpty)
	}
}

// threeBands are the hosted row bands of a table split at v04 and v08.
var threeBands = []skv.Range{skv.RowRange("", "v04"), skv.RowRange("v04", "v08"), skv.RowRange("v08", "")}

// TestTwoTableMaskReadOncePerPass: the mask A, spread over three
// tablets, is read in exactly one nested scan per support pass, over its
// whole key space — a hosted row's walk reaches rows of every band —
// whether the passes cover one band each or the whole table at once.
func TestTwoTableMaskReadOncePerPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vertices := names("v", 12)
	a := randomSymmetric(rng, vertices, 0.5)
	if len(filteredProduct(t, a)) == 0 {
		t.Fatal("the table has no support to form")
	}
	for name, bands := range map[string][]skv.Range{"one": {skv.FullRange()}, "three": threeBands} {
		te := &tabletEnv{tablets: map[string][][]skv.Entry{"A": splitRows(a, "v04", "v08")}, opens: map[string][]skv.Range{}}
		sameCells(t, supportCells(t, te, a, bands), filteredProduct(t, a))
		if opens := te.opens["A"]; len(opens) != len(bands) {
			t.Fatalf("%s pass(es): A opened %d times for %d passes", name, len(opens), len(bands))
		}
		for _, r := range te.opens["A"] {
			if r.HasStart || r.HasEnd {
				t.Fatalf("%s pass(es): A read over %+v, want its whole key space", name, r)
			}
		}
	}
}

// TestSupportHostedVertexMissingFromA: a hosted row naming a vertex the
// whole-A read lacks — an edge written between the two reads — finds
// that vertex's row empty instead of indexing past A's rows, so the
// support is A's own.
func TestSupportHostedVertexMissingFromA(t *testing.T) {
	var a []skv.Entry
	for _, c := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "a"}, {"b", "c"}, {"c", "a"}, {"c", "b"}} {
		a = append(a, e(c[0], "edge", c[1], 1, 1))
	}
	hosted := append([]skv.Entry{}, a[:2]...)
	hosted = append(hosted, e("a", "edge", "z", 1, 1))
	hosted = append(hosted, a[2:]...)
	hosted = append(hosted, e("z", "edge", "a", 1, 1), e("z", "edge", "y", 1, 1))
	env := newFakeEnv()
	env.tables["A"] = a
	got := supportCells(t, env, hosted, []skv.Range{skv.FullRange()})
	sameCells(t, got, filteredProduct(t, a))
}
