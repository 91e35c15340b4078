package sparse

import (
	"fmt"

	"graphulo/internal/semiring"
)

// SpGEMM computes C = A ⊕.⊗ B over the given semiring using Gustavson's
// row-wise algorithm with a sparse accumulator. This is the GraphBLAS
// Sparse Generalized Matrix Multiply kernel.
func SpGEMM(a, b *Matrix, ring semiring.Semiring) *Matrix {
	if a.c != b.r {
		panic(fmt.Sprintf("sparse: SpGEMM shape mismatch %d×%d · %d×%d", a.r, a.c, b.r, b.c))
	}
	c := &Matrix{r: a.r, c: b.c, rowPtr: make([]int, a.r+1)}
	acc := newSpa(b.c, ring.Zero)
	for i := 0; i < a.r; i++ {
		spgemmRow(a, b, i, ring, acc)
		acc.drain(ring, &c.colIdx, &c.val)
		c.rowPtr[i+1] = len(c.colIdx)
	}
	return c
}

// spgemmRow accumulates row i of A·B into acc.
func spgemmRow(a, b *Matrix, i int, ring semiring.Semiring, acc *spa) {
	for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
		j := a.colIdx[ka]
		av := a.val[ka]
		for kb := b.rowPtr[j]; kb < b.rowPtr[j+1]; kb++ {
			acc.scatter(b.colIdx[kb], ring.Mul(av, b.val[kb]), ring)
		}
	}
}

// spa is a sparse accumulator: a dense value array plus an occupancy list,
// reset in O(nnz of the row) rather than O(n).
type spa struct {
	vals     []float64
	occupied []bool
	nzList   []int
	zero     float64
}

func newSpa(n int, zero float64) *spa {
	return &spa{
		vals:     make([]float64, n),
		occupied: make([]bool, n),
		nzList:   make([]int, 0, 64),
		zero:     zero,
	}
}

func (s *spa) scatter(j int, v float64, ring semiring.Semiring) {
	if !s.occupied[j] {
		s.occupied[j] = true
		s.vals[j] = v
		s.nzList = append(s.nzList, j)
		return
	}
	s.vals[j] = ring.Add(s.vals[j], v)
}

// drain appends the accumulated row (sorted by column, zeros dropped) to
// the output slices and resets the accumulator.
func (s *spa) drain(ring semiring.Semiring, colIdx *[]int, val *[]float64) {
	sortInts(s.nzList)
	for _, j := range s.nzList {
		if !ring.IsZero(s.vals[j]) {
			*colIdx = append(*colIdx, j)
			*val = append(*val, s.vals[j])
		}
		s.occupied[j] = false
	}
	s.nzList = s.nzList[:0]
}

// sortInts is an insertion/quick hybrid tuned for the short, nearly
// random occupancy lists SpGEMM produces.
func sortInts(a []int) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	// median-of-three quicksort
	mid := len(a) / 2
	if a[0] > a[mid] {
		a[0], a[mid] = a[mid], a[0]
	}
	if a[mid] > a[len(a)-1] {
		a[mid], a[len(a)-1] = a[len(a)-1], a[mid]
		if a[0] > a[mid] {
			a[0], a[mid] = a[mid], a[0]
		}
	}
	pivot := a[mid]
	i, j := 0, len(a)-1
	for i <= j {
		for a[i] < pivot {
			i++
		}
		for a[j] > pivot {
			j--
		}
		if i <= j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
		}
	}
	sortInts(a[:j+1])
	sortInts(a[i:])
}

// SpMV computes y = A ⊕.⊗ x for a dense vector x of length A.Cols().
// Output entries start from the semiring zero; rows with no contribution
// yield ring.Zero.
func SpMV(a *Matrix, x []float64, ring semiring.Semiring) []float64 {
	if len(x) != a.c {
		panic(fmt.Sprintf("sparse: SpMV length mismatch %d vs %d", len(x), a.c))
	}
	y := make([]float64, a.r)
	for i := range y {
		acc := ring.Zero
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			acc = ring.Add(acc, ring.Mul(a.val[k], x[a.colIdx[k]]))
		}
		y[i] = acc
	}
	return y
}

// Vector is a sparse vector: sorted indices with parallel values.
type Vector struct {
	N   int
	Idx []int
	Val []float64
}

// NewVector builds a sparse vector of logical length n from (idx, val)
// pairs, combining duplicates with ring.Add and dropping zeros.
func NewVector(n int, idx []int, val []float64, ring semiring.Semiring) *Vector {
	if len(idx) != len(val) {
		panic("sparse: NewVector idx/val length mismatch")
	}
	ts := make([]Triple, len(idx))
	for i := range idx {
		if idx[i] < 0 || idx[i] >= n {
			panic(fmt.Sprintf("sparse: vector index %d out of range [0,%d)", idx[i], n))
		}
		ts[i] = Triple{Row: 0, Col: idx[i], Val: val[i]}
	}
	m := NewFromTriples(1, n, ts, ring)
	cols, vals := m.Row(0)
	v := &Vector{N: n, Idx: make([]int, len(cols)), Val: make([]float64, len(vals))}
	copy(v.Idx, cols)
	copy(v.Val, vals)
	return v
}

// NNZ returns the number of stored entries.
func (v *Vector) NNZ() int { return len(v.Idx) }

// Dense materialises the vector with unstored entries set to zero.
func (v *Vector) Dense() []float64 {
	d := make([]float64, v.N)
	for k, i := range v.Idx {
		d[i] = v.Val[k]
	}
	return d
}

// SpMSpV computes y = Aᵀ ⊕.⊗ x for a sparse vector x, visiting only the
// rows of A selected by x's nonzeros (pull by row of Aᵀ = push by row of
// A). A is interpreted row-wise: y[j] = ⊕_i x[i] ⊗ A[i][j]. This matches
// frontier expansion y = AᵀxF in BFS when A is an adjacency matrix.
func SpMSpV(a *Matrix, x *Vector, ring semiring.Semiring) *Vector {
	if x.N != a.r {
		panic(fmt.Sprintf("sparse: SpMSpV length mismatch %d vs %d rows", x.N, a.r))
	}
	acc := newSpa(a.c, ring.Zero)
	for k, i := range x.Idx {
		xv := x.Val[k]
		for p := a.rowPtr[i]; p < a.rowPtr[i+1]; p++ {
			acc.scatter(a.colIdx[p], ring.Mul(xv, a.val[p]), ring)
		}
	}
	var idx []int
	var val []float64
	acc.drain(ring, &idx, &val)
	return &Vector{N: a.c, Idx: idx, Val: val}
}
