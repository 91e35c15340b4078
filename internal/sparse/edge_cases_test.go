package sparse

import (
	"math"
	"testing"

	"graphulo/internal/semiring"
)

// Edge cases: empty matrices, single rows/columns, semirings with
// non-standard zeros, and boundary shapes that slip past the main tests.

func TestEmptyMatrixOperations(t *testing.T) {
	empty := New(0, 0)
	if empty.NNZ() != 0 || empty.Rows() != 0 {
		t.Fatalf("empty matrix malformed")
	}
	et := Transpose(empty)
	if et.Rows() != 0 || et.Cols() != 0 {
		t.Fatalf("transpose of empty wrong")
	}
	p := SpGEMM(empty, empty, semiring.PlusTimes)
	if p.NNZ() != 0 {
		t.Fatalf("empty product has entries")
	}
}

func TestEmptyRowsAndCols(t *testing.T) {
	m := New(3, 4) // all zero
	if got := SpMV(m, []float64{1, 2, 3, 4}, semiring.PlusTimes); got[0] != 0 || got[2] != 0 {
		t.Fatalf("zero matrix SpMV wrong: %v", got)
	}
	// min.plus zero matrix: rows reduce to +Inf (the semiring zero).
	if got := SpMV(m, []float64{1, 2, 3, 4}, semiring.MinPlus); !math.IsInf(got[0], 1) {
		t.Fatalf("min.plus empty row should be +Inf, got %v", got[0])
	}
}

func TestSingleElementMatrix(t *testing.T) {
	m := NewFromTriples(1, 1, []Triple{{0, 0, 5}}, semiring.PlusTimes)
	sq := SpGEMM(m, m, semiring.PlusTimes)
	if sq.At(0, 0) != 25 {
		t.Fatalf("1×1 square = %v", sq.At(0, 0))
	}
}

func TestVectorShapedMatrices(t *testing.T) {
	row := NewFromTriples(1, 5, []Triple{{0, 1, 2}, {0, 4, 3}}, semiring.PlusTimes)
	col := NewFromTriples(5, 1, []Triple{{1, 0, 4}, {4, 0, 5}}, semiring.PlusTimes)
	inner := SpGEMM(row, col, semiring.PlusTimes)
	if inner.At(0, 0) != 2*4+3*5 {
		t.Fatalf("inner product = %v, want 23", inner.At(0, 0))
	}
	outer := SpGEMM(col, row, semiring.PlusTimes)
	if outer.NNZ() != 4 || outer.At(1, 1) != 8 || outer.At(4, 4) != 15 {
		t.Fatalf("outer product wrong:\n%v", outer)
	}
}

func TestGetDistinguishesStoredZero(t *testing.T) {
	// Under min.plus, 0 is a legitimate stored value.
	m := NewFromTriples(2, 2, []Triple{{0, 0, 0}}, semiring.MinPlus)
	v, stored := m.Get(0, 0)
	if !stored || v != 0 {
		t.Fatalf("stored 0 lost: %v %v", v, stored)
	}
	if _, stored := m.Get(1, 1); stored {
		t.Fatalf("absent entry reported as stored")
	}
}

func TestRowNNZAndRowAccess(t *testing.T) {
	m := NewFromDense([][]float64{{1, 0, 2}, {0, 0, 0}})
	if m.RowNNZ(0) != 2 || m.RowNNZ(1) != 0 {
		t.Fatalf("RowNNZ wrong")
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[1] != 2 || vals[1] != 2 {
		t.Fatalf("Row access wrong: %v %v", cols, vals)
	}
}

func TestEWiseAddMinPlus(t *testing.T) {
	// Union under min: present-vs-absent keeps the present value
	// (absent = +Inf = identity of min).
	a := NewFromTriples(1, 2, []Triple{{0, 0, 5}}, semiring.MinPlus)
	b := NewFromTriples(1, 2, []Triple{{0, 0, 3}, {0, 1, 7}}, semiring.MinPlus)
	c := EWiseAdd(a, b, semiring.MinPlus)
	if v, _ := c.Get(0, 0); v != 3 {
		t.Fatalf("min union = %v, want 3", v)
	}
	if v, _ := c.Get(0, 1); v != 7 {
		t.Fatalf("one-sided value lost: %v", v)
	}
}

func TestTriuOutOfBandOffsets(t *testing.T) {
	m := NewFromDense([][]float64{{1, 2}, {3, 4}})
	if Triu(m, 5).NNZ() != 0 {
		t.Fatalf("far upper band should be empty")
	}
}

func TestSpMSpVEmptyFrontier(t *testing.T) {
	m := randMatrix(5, 5, 0.5, 77)
	empty := &Vector{N: 5}
	out := SpMSpV(m, empty, semiring.OrAnd)
	if out.NNZ() != 0 {
		t.Fatalf("empty frontier should expand to nothing")
	}
}

func TestReduceEmptyMatrix(t *testing.T) {
	m := New(3, 3)
	if got := Reduce(m, semiring.PlusMonoid); got != 0 {
		t.Fatalf("empty reduce = %v", got)
	}
	if got := Reduce(m, semiring.MinMonoid); !math.IsInf(got, 1) {
		t.Fatalf("empty min reduce should be identity")
	}
}

func TestScaleByZeroEmptiesMatrix(t *testing.T) {
	m := NewFromDense([][]float64{{1, 2}, {3, 4}})
	z := Scale(m, 0)
	if z.NNZ() != 0 {
		t.Fatalf("scaling by 0 should drop all entries (sparsity invariant)")
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(-1, 2)
}
