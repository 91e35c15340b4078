package sparse

import (
	"fmt"

	"graphulo/internal/semiring"
)

// EWiseAdd computes C = A ⊕ B over the union of patterns: entries present
// in only one operand pass through unchanged (they combine with the
// implicit zero, and ⊕ has zero as identity). This is the associative-
// array "summation is union" operation of §II.A.
func EWiseAdd(a, b *Matrix, ring semiring.Semiring) *Matrix {
	if a.r != b.r || a.c != b.c {
		panic(fmt.Sprintf("sparse: EWiseAdd shape mismatch %d×%d vs %d×%d", a.r, a.c, b.r, b.c))
	}
	c := &Matrix{r: a.r, c: a.c, rowPtr: make([]int, a.r+1)}
	c.colIdx = make([]int, 0, a.NNZ()+b.NNZ())
	c.val = make([]float64, 0, a.NNZ()+b.NNZ())
	for i := 0; i < a.r; i++ {
		ka, ea := a.rowPtr[i], a.rowPtr[i+1]
		kb, eb := b.rowPtr[i], b.rowPtr[i+1]
		for ka < ea || kb < eb {
			var col int
			var v float64
			switch {
			case kb >= eb || (ka < ea && a.colIdx[ka] < b.colIdx[kb]):
				col, v = a.colIdx[ka], a.val[ka]
				ka++
			case ka >= ea || b.colIdx[kb] < a.colIdx[ka]:
				col, v = b.colIdx[kb], b.val[kb]
				kb++
			default: // equal columns
				col = a.colIdx[ka]
				v = ring.Add(a.val[ka], b.val[kb])
				ka++
				kb++
			}
			if !ring.IsZero(v) {
				c.colIdx = append(c.colIdx, col)
				c.val = append(c.val, v)
			}
		}
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}

// EWiseMult computes C = A ⊗ B over the intersection of patterns (the
// GraphBLAS SpEWiseX kernel): entries present in only one operand are
// dropped, because ⊗ annihilates on the implicit zero.
func EWiseMult(a, b *Matrix, ring semiring.Semiring) *Matrix {
	if a.r != b.r || a.c != b.c {
		panic(fmt.Sprintf("sparse: EWiseMult shape mismatch %d×%d vs %d×%d", a.r, a.c, b.r, b.c))
	}
	c := &Matrix{r: a.r, c: a.c, rowPtr: make([]int, a.r+1)}
	for i := 0; i < a.r; i++ {
		ka, ea := a.rowPtr[i], a.rowPtr[i+1]
		kb, eb := b.rowPtr[i], b.rowPtr[i+1]
		for ka < ea && kb < eb {
			switch {
			case a.colIdx[ka] < b.colIdx[kb]:
				ka++
			case b.colIdx[kb] < a.colIdx[ka]:
				kb++
			default:
				v := ring.Mul(a.val[ka], b.val[kb])
				if !ring.IsZero(v) {
					c.colIdx = append(c.colIdx, a.colIdx[ka])
					c.val = append(c.val, v)
				}
				ka++
				kb++
			}
		}
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}

// Apply maps f over every stored entry (the GraphBLAS Apply kernel),
// dropping results equal to zero so sparsity is preserved.
func Apply(a *Matrix, f semiring.UnaryOp) *Matrix {
	c := &Matrix{r: a.r, c: a.c, rowPtr: make([]int, a.r+1)}
	c.colIdx = make([]int, 0, a.NNZ())
	c.val = make([]float64, 0, a.NNZ())
	for i := 0; i < a.r; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			v := f(a.val[k])
			if v != 0 {
				c.colIdx = append(c.colIdx, a.colIdx[k])
				c.val = append(c.val, v)
			}
		}
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}

// Scale multiplies every stored entry by s (the GraphBLAS Scale kernel,
// i.e. SpEWiseX with a scalar).
func Scale(a *Matrix, s float64) *Matrix {
	return Apply(a, semiring.ScaleBy(s))
}

// Select keeps entries satisfying pred(i, j, v) and drops the rest.
// Generalises Apply when the predicate needs coordinates, e.g. the
// paper's triu implemented as a user-defined Hadamard product f(i, j).
func Select(a *Matrix, pred func(i, j int, v float64) bool) *Matrix {
	c := &Matrix{r: a.r, c: a.c, rowPtr: make([]int, a.r+1)}
	for i := 0; i < a.r; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if pred(i, a.colIdx[k], a.val[k]) {
				c.colIdx = append(c.colIdx, a.colIdx[k])
				c.val = append(c.val, a.val[k])
			}
		}
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}
