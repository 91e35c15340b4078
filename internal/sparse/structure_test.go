package sparse

import (
	"math"
	"testing"

	"graphulo/internal/semiring"
)

func TestTranspose(t *testing.T) {
	a := randMatrix(15, 9, 0.2, 11)
	at := Transpose(a)
	if at.Rows() != 9 || at.Cols() != 15 {
		t.Fatalf("shape %d×%d", at.Rows(), at.Cols())
	}
	for _, tr := range a.Triples() {
		if at.At(tr.Col, tr.Row) != tr.Val {
			t.Fatalf("transpose lost (%d,%d)=%v", tr.Row, tr.Col, tr.Val)
		}
	}
	if !Equal(a, Transpose(at)) {
		t.Fatalf("double transpose differs")
	}
	if err := at.checkBuilt(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestTriuTril(t *testing.T) {
	a := NewFromDense([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	u1 := Triu(a, 1)
	if u1.NNZ() != 3 || u1.At(0, 1) != 2 || u1.At(1, 1) != 0 {
		t.Fatalf("strict triu wrong:\n%v", u1)
	}
	u0 := Triu(a, 0)
	if u0.NNZ() != 6 || u0.At(1, 1) != 5 {
		t.Fatalf("triu k=0 wrong:\n%v", u0)
	}
}

func TestNoDiag(t *testing.T) {
	a := NewFromDense([][]float64{{5, 1}, {2, 7}})
	nd := NoDiag(a)
	if nd.At(0, 0) != 0 || nd.At(1, 1) != 0 || nd.At(0, 1) != 1 || nd.At(1, 0) != 2 {
		t.Fatalf("NoDiag wrong:\n%v", nd)
	}
}

func TestSpRef(t *testing.T) {
	a := NewFromDense([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	s := SpRef(a, []int{2, 0}, []int{1, 2})
	want := [][]float64{{8, 9}, {2, 3}}
	sameDense(t, s, want, 0)
	// Repeated indices duplicate entries, as in MATLAB.
	s2 := SpRef(a, []int{1, 1}, []int{0, 0})
	want2 := [][]float64{{4, 4}, {4, 4}}
	sameDense(t, s2, want2, 0)
}

func TestSpRefRows(t *testing.T) {
	a := randMatrix(10, 6, 0.3, 13)
	s := SpRefRows(a, []int{3, 3, 9})
	if s.Rows() != 3 || s.Cols() != 6 {
		t.Fatalf("shape %d×%d", s.Rows(), s.Cols())
	}
	for j := 0; j < 6; j++ {
		if s.At(0, j) != a.At(3, j) || s.At(1, j) != a.At(3, j) || s.At(2, j) != a.At(9, j) {
			t.Fatalf("row content wrong at col %d", j)
		}
	}
}

func TestSpAsgn(t *testing.T) {
	a := NewFromDense([][]float64{
		{1, 1, 1},
		{1, 1, 1},
		{1, 1, 1},
	})
	b := NewFromDense([][]float64{{0, 9}, {8, 0}})
	c := SpAsgn(a, []int{0, 2}, []int{0, 2}, b)
	want := [][]float64{
		{0, 1, 9},
		{1, 1, 1},
		{8, 1, 0},
	}
	sameDense(t, c, want, 0)
	// Original untouched.
	if a.At(0, 0) != 1 {
		t.Fatalf("SpAsgn mutated its input")
	}
}

func TestDeleteRowsAndComplement(t *testing.T) {
	c := Complement([]int{1, 3}, 4)
	if len(c) != 2 || c[0] != 0 || c[1] != 2 {
		t.Fatalf("Complement = %v", c)
	}
}

func TestReduceRowsColsAll(t *testing.T) {
	a := NewFromDense([][]float64{
		{1, 2, 0},
		{0, 0, 0},
		{3, 0, 4},
	})
	rows := ReduceRows(a, semiring.PlusMonoid)
	if rows[0] != 3 || rows[1] != 0 || rows[2] != 7 {
		t.Fatalf("row sums = %v", rows)
	}
	cols := ReduceCols(a, semiring.PlusMonoid)
	if cols[0] != 4 || cols[1] != 2 || cols[2] != 4 {
		t.Fatalf("col sums = %v", cols)
	}
	if got := Reduce(a, semiring.PlusMonoid); got != 10 {
		t.Fatalf("total = %v", got)
	}
	mins := ReduceRows(a, semiring.MinMonoid)
	if mins[0] != 1 || !math.IsInf(mins[1], 1) {
		t.Fatalf("row mins = %v", mins)
	}
	colMax := ReduceCols(a, semiring.MaxMonoid)
	if colMax[0] != 3 || colMax[1] != 2 || colMax[2] != 4 {
		t.Fatalf("col max = %v", colMax)
	}
}

func TestFind(t *testing.T) {
	got := Find([]float64{3, 0, 5, 1}, func(v float64) bool { return v < 2 })
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Find = %v", got)
	}
}

func TestNorms(t *testing.T) {
	a := NewFromDense([][]float64{{3, -4}, {0, 0}})
	if FrobeniusNorm(a) != 5 {
		t.Fatalf("frobenius = %v", FrobeniusNorm(a))
	}
}

func TestEWiseAddUnionSemantics(t *testing.T) {
	a := NewFromDense([][]float64{{1, 0}, {0, 2}})
	b := NewFromDense([][]float64{{0, 3}, {0, 5}})
	c := EWiseAdd(a, b, semiring.PlusTimes)
	want := [][]float64{{1, 3}, {0, 7}}
	sameDense(t, c, want, 0)
	// Annihilation drops entries entirely.
	d := EWiseAdd(a, Scale(a, -1), semiring.PlusTimes)
	if d.NNZ() != 0 {
		t.Fatalf("a + (−a) should be empty, nnz=%d", d.NNZ())
	}
}

func TestEWiseMultIntersectionSemantics(t *testing.T) {
	a := NewFromDense([][]float64{{1, 2}, {0, 3}})
	b := NewFromDense([][]float64{{5, 0}, {7, 2}})
	c := EWiseMult(a, b, semiring.PlusTimes)
	want := [][]float64{{5, 0}, {0, 6}}
	sameDense(t, c, want, 0)
}

func TestApplyAndScale(t *testing.T) {
	a := NewFromDense([][]float64{{2, -3}, {0, 4}})
	b := Apply(a, semiring.Abs)
	if b.At(0, 1) != 3 {
		t.Fatalf("abs wrong")
	}
	c := Scale(a, 10)
	if c.At(1, 1) != 40 {
		t.Fatalf("scale wrong")
	}
	// Apply dropping zeros: indicator keeps sparsity honest.
	d := Apply(a, semiring.EqualsIndicator(4))
	if d.NNZ() != 1 || d.At(1, 1) != 1 {
		t.Fatalf("indicator wrong: nnz=%d", d.NNZ())
	}
}

func TestSelectCoordinates(t *testing.T) {
	a := NewFromDense([][]float64{{1, 2}, {3, 4}})
	s := Select(a, func(i, j int, v float64) bool { return i == j && v > 1 })
	if s.NNZ() != 1 || s.At(1, 1) != 4 {
		t.Fatalf("select wrong:\n%v", s)
	}
}
