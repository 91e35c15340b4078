package sparse

import (
	"fmt"
	"math"

	"graphulo/internal/semiring"
)

// Transpose returns Aᵀ, built in O(nnz + r + c) with a counting pass.
func Transpose(a *Matrix) *Matrix {
	t := &Matrix{r: a.c, c: a.r, rowPtr: make([]int, a.c+1)}
	t.colIdx = make([]int, a.NNZ())
	t.val = make([]float64, a.NNZ())
	for _, j := range a.colIdx {
		t.rowPtr[j+1]++
	}
	for j := 0; j < t.r; j++ {
		t.rowPtr[j+1] += t.rowPtr[j]
	}
	next := make([]int, t.r)
	for i := 0; i < a.r; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			j := a.colIdx[k]
			p := t.rowPtr[j] + next[j]
			t.colIdx[p] = i
			t.val[p] = a.val[k]
			next[j]++
		}
	}
	return t
}

// Triu extracts the upper triangle: entries with j ≥ i + k. Triu(A, 0)
// keeps the diagonal, Triu(A, 1) is strictly upper — the paper's U in
// A = L + U (Algorithm 2 uses a strictly triangular split of a
// zero-diagonal adjacency matrix, then Fig. 2's triu(X) keeps k = 0).
func Triu(a *Matrix, k int) *Matrix {
	return Select(a, func(i, j int, _ float64) bool { return j >= i+k })
}

// NoDiag removes the diagonal: A − diag(A) as used in the paper's
// identity A = EᵀE − diag(EᵀE).
func NoDiag(a *Matrix) *Matrix {
	return Select(a, func(i, j int, _ float64) bool { return i != j })
}

// SpRef extracts the submatrix A(rows, cols) (the GraphBLAS SpRef
// kernel). Row i of the result is A(rows[i], :) restricted to cols, with
// columns renumbered by their position in cols. Indices may repeat and
// may appear in any order, as in MATLAB subscripting.
func SpRef(a *Matrix, rows, cols []int) *Matrix {
	for _, i := range rows {
		if i < 0 || i >= a.r {
			panic(fmt.Sprintf("sparse: SpRef row %d out of range [0,%d)", i, a.r))
		}
	}
	colPos := make(map[int][]int, len(cols))
	for p, j := range cols {
		if j < 0 || j >= a.c {
			panic(fmt.Sprintf("sparse: SpRef col %d out of range [0,%d)", j, a.c))
		}
		colPos[j] = append(colPos[j], p)
	}
	var ts []Triple
	for outI, i := range rows {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			for _, outJ := range colPos[a.colIdx[k]] {
				ts = append(ts, Triple{outI, outJ, a.val[k]})
			}
		}
	}
	return NewFromTriples(len(rows), len(cols), ts, semiring.PlusTimes)
}

// SpRefRows extracts whole rows: A(rows, :).
func SpRefRows(a *Matrix, rows []int) *Matrix {
	c := &Matrix{r: len(rows), c: a.c, rowPtr: make([]int, len(rows)+1)}
	for outI, i := range rows {
		if i < 0 || i >= a.r {
			panic(fmt.Sprintf("sparse: SpRefRows row %d out of range [0,%d)", i, a.r))
		}
		c.colIdx = append(c.colIdx, a.colIdx[a.rowPtr[i]:a.rowPtr[i+1]]...)
		c.val = append(c.val, a.val[a.rowPtr[i]:a.rowPtr[i+1]]...)
		c.rowPtr[outI+1] = len(c.colIdx)
	}
	return c
}

// SpAsgn assigns B into A at (rows, cols) (the GraphBLAS SpAsgn kernel):
// C = A with C(rows[i], cols[j]) = B(i, j). The target block is cleared
// first, so zeros of B erase existing entries, as in MATLAB
// A(rows, cols) = B.
func SpAsgn(a *Matrix, rows, cols []int, b *Matrix) *Matrix {
	if b.r != len(rows) || b.c != len(cols) {
		panic(fmt.Sprintf("sparse: SpAsgn block shape %d×%d want %d×%d", b.r, b.c, len(rows), len(cols)))
	}
	inRows := make(map[int]bool, len(rows))
	for _, i := range rows {
		inRows[i] = true
	}
	inCols := make(map[int]bool, len(cols))
	for _, j := range cols {
		inCols[j] = true
	}
	ts := make([]Triple, 0, a.NNZ()+b.NNZ())
	for _, t := range a.Triples() {
		if inRows[t.Row] && inCols[t.Col] {
			continue // cleared by the assignment
		}
		ts = append(ts, t)
	}
	for _, t := range b.Triples() {
		ts = append(ts, Triple{rows[t.Row], cols[t.Col], t.Val})
	}
	return NewFromTriples(a.r, a.c, ts, semiring.PlusTimes)
}

// Reduce folds all stored entries with the monoid.
func Reduce(a *Matrix, m semiring.Monoid) float64 {
	acc := m.Identity
	for _, v := range a.val {
		acc = m.Op(acc, v)
	}
	return acc
}

// ReduceRows folds each row with the monoid, returning a dense vector of
// length Rows(). Empty rows yield the monoid identity. With PlusMonoid on
// an adjacency matrix this is out-degree (the paper's degree centrality).
func ReduceRows(a *Matrix, m semiring.Monoid) []float64 {
	out := make([]float64, a.r)
	for i := 0; i < a.r; i++ {
		acc := m.Identity
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			acc = m.Op(acc, a.val[k])
		}
		out[i] = acc
	}
	return out
}

// ReduceCols folds each column with the monoid (in-degree on an
// adjacency matrix).
func ReduceCols(a *Matrix, m semiring.Monoid) []float64 {
	out := make([]float64, a.c)
	started := make([]bool, a.c)
	for k, j := range a.colIdx {
		if !started[j] {
			out[j] = m.Op(m.Identity, a.val[k])
			started[j] = true
		} else {
			out[j] = m.Op(out[j], a.val[k])
		}
	}
	for j := range out {
		if !started[j] {
			out[j] = m.Identity
		}
	}
	return out
}

// Find returns the row indices whose reduced value satisfies pred; the
// paper's x = find(s < k−2) pattern.
func Find(v []float64, pred func(float64) bool) []int {
	var idx []int
	for i, x := range v {
		if pred(x) {
			idx = append(idx, i)
		}
	}
	return idx
}

// Complement returns the indices in [0, n) not present in idx; the
// paper's xᶜ.
func Complement(idx []int, n int) []int {
	in := make([]bool, n)
	for _, i := range idx {
		in[i] = true
	}
	out := make([]int, 0, n-len(idx))
	for i := 0; i < n; i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// FrobeniusNorm returns sqrt(Σ v²) over stored entries.
func FrobeniusNorm(a *Matrix) float64 {
	s := 0.0
	for _, v := range a.val {
		s += v * v
	}
	return math.Sqrt(s)
}
