package iterator

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// randomOperand is a random sparse table over rows × cols with values
// 1..4, sorted.
func randomOperand(rng *rand.Rand, rows, cols []string, density float64) []skv.Entry {
	var out []skv.Entry
	for _, r := range rows {
		for _, c := range cols {
			if rng.Float64() < density {
				out = append(out, e(r, "", c, 1, float64(1+rng.Intn(4))))
			}
		}
	}
	return out
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// foldedProduct runs TwoTable → fold over one hosted range and returns
// the ⊕-folded cells; mask "" runs unmasked.
func foldedProduct(t *testing.T, env Env, b []skv.Entry, rng skv.Range, ring semiring.Semiring, mask string, budget int) map[skv.Key]float64 {
	t.Helper()
	remote := NewRemoteSourceIterator("AT", env)
	tt := NewTwoTableIterator(NewSliceIter(b), remote, ring)
	if mask != "" {
		tt = NewMaskedTwoTableIterator(NewSliceIter(b), remote, ring, mask, nil, env)
	}
	f := NewFoldIterator(tt, ring, budget, env)
	if err := f.Seek(rng); err != nil {
		t.Fatal(err)
	}
	var out []skv.Entry
	for _, gen := range generations(t, f) {
		out = append(out, gen...)
	}
	return foldCells(out, ring)
}

// TestTwoTableMaskedEqualsFilteredProduct: C⟨M⟩ folded equals the
// unmasked C folded and then filtered to M's cells — on random operands,
// with masks holding cells the product never forms, with an empty mask,
// at a fold budget that never spills and one that spills constantly,
// under plus.times, min.plus and plus.and.
func TestTwoTableMaskedEqualsFilteredProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inner, outRows, outCols := names("i", 12), names("r", 10), names("c", 10)
	// Mask coordinates reach past the operands' names, so some mask cells
	// lie outside anything the product forms.
	maskRows, maskCols := append(names("r", 10), "r98", "r99"), append(names("c", 10), "c99")
	for _, ringName := range []string{"plus.times", "min.plus", "plus.and"} {
		ring, _ := semiring.ByName(ringName)
		for trial := 0; trial < 20; trial++ {
			env := newFakeEnv()
			env.tables["AT"] = randomOperand(rng, inner, outRows, 0.3)
			b := randomOperand(rng, inner, outCols, 0.3)
			density := []float64{0, 0.1, 0.5, 1}[trial%4] // 0: the empty mask
			env.tables["M"] = append([]skv.Entry{}, randomOperand(rng, maskRows, maskCols, density)...)
			inMask := map[skv.Key]bool{}
			for _, m := range env.tables["M"] {
				inMask[skv.Key{Row: m.K.Row, ColQ: m.K.ColQ}] = true
			}
			for _, budget := range []int{16 << 20, 512} {
				want := map[skv.Key]float64{}
				for k, v := range foldedProduct(t, env, b, skv.FullRange(), ring, "", budget) {
					if inMask[k] {
						want[k] = v
					}
				}
				got := foldedProduct(t, env, b, skv.FullRange(), ring, "M", budget)
				if density == 0 && len(got) != 0 {
					t.Fatalf("%s trial %d: empty mask let %d cells through", ringName, trial, len(got))
				}
				sameCells(t, got, want)
			}
		}
	}
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

// TestTwoTableMaskReadOncePerPass: a mask spread over three tablets is
// read in exactly one nested scan per pass, over its whole key space —
// its cells are output coordinates, not the pass's inner rows — and the
// passes over three row bands of the hosted operand together form
// exactly the masked product.
func TestTwoTableMaskReadOncePerPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inner, outRows, outCols := names("i", 12), names("r", 10), names("c", 10)
	at := randomOperand(rng, inner, outRows, 0.4)
	b := randomOperand(rng, inner, outCols, 0.4)
	mask := randomOperand(rng, outRows, outCols, 0.3)
	te := &tabletEnv{
		tablets: map[string][][]skv.Entry{"AT": splitRows(at, "i04", "i08"), "M": splitRows(mask, "r03", "r06")},
		opens:   map[string][]skv.Range{},
	}
	ring := semiring.PlusTimes
	got := map[skv.Key]float64{}
	bands := []skv.Range{skv.RowRange("", "i04"), skv.RowRange("i04", "i08"), skv.RowRange("i08", "")}
	for pass, band := range bands {
		for k, v := range foldedProduct(t, te, b, band, ring, "M", 16<<20) {
			got[k] = ring.Add(got[k], v)
		}
		if opens := te.opens["M"]; len(opens) != pass+1 {
			t.Fatalf("after pass %d the mask was opened %d times, want %d", pass, len(opens), pass+1)
		}
		if rng := te.opens["M"][pass]; rng.HasStart || rng.HasEnd {
			t.Fatalf("pass %d read the mask over %+v, want its whole key space", pass, rng)
		}
	}
	env := newFakeEnv()
	env.tables["AT"] = at
	inMask := map[skv.Key]bool{}
	for _, m := range mask {
		inMask[skv.Key{Row: m.K.Row, ColQ: m.K.ColQ}] = true
	}
	want := map[skv.Key]float64{}
	for k, v := range foldedProduct(t, env, b, skv.FullRange(), ring, "", 16<<20) {
		if inMask[k] {
			want[k] = v
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate case: the masked product is empty")
	}
	sameCells(t, got, want)
}
