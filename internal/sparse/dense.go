package sparse

import (
	"fmt"
	"math"
)

// Dense is a small dense row-major matrix. The NMF factor matrices W
// (m×k) and H (k×n) are dense by nature (k is the topic count), so the
// alternating-least-squares loop of the paper's Algorithms 3/5 works on
// Dense while keeping the data matrix A sparse.
type Dense struct {
	R, C int
	Data []float64 // row-major, length R*C
}

// NewDense returns an R×C zero matrix.
func NewDense(r, c int) *Dense {
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// DenseFromRows builds a Dense from row slices.
func DenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	d := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("sparse: ragged dense input")
		}
		copy(d.Data[i*c:(i+1)*c], row)
	}
	return d
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.C+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.C+j] = v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.R, d.C)
	copy(out.Data, d.Data)
	return out
}

// T returns the transpose.
func (d *Dense) T() *Dense {
	out := NewDense(d.C, d.R)
	for i := 0; i < d.R; i++ {
		for j := 0; j < d.C; j++ {
			out.Data[j*d.R+i] = d.Data[i*d.C+j]
		}
	}
	return out
}

// MulDense returns d · e.
func (d *Dense) MulDense(e *Dense) *Dense {
	if d.C != e.R {
		panic(fmt.Sprintf("sparse: dense mul shape %d×%d · %d×%d", d.R, d.C, e.R, e.C))
	}
	out := NewDense(d.R, e.C)
	for i := 0; i < d.R; i++ {
		for l := 0; l < d.C; l++ {
			dv := d.Data[i*d.C+l]
			if dv == 0 {
				continue
			}
			erow := e.Data[l*e.C : (l+1)*e.C]
			orow := out.Data[i*e.C : (i+1)*e.C]
			for j, ev := range erow {
				orow[j] += dv * ev
			}
		}
	}
	return out
}

// AddDense returns d + e.
func (d *Dense) AddDense(e *Dense) *Dense {
	if d.R != e.R || d.C != e.C {
		panic("sparse: dense add shape mismatch")
	}
	out := d.Clone()
	for i, v := range e.Data {
		out.Data[i] += v
	}
	return out
}

// SubDense returns d − e.
func (d *Dense) SubDense(e *Dense) *Dense {
	if d.R != e.R || d.C != e.C {
		panic("sparse: dense sub shape mismatch")
	}
	out := d.Clone()
	for i, v := range e.Data {
		out.Data[i] -= v
	}
	return out
}

// ScaleDense returns s·d.
func (d *Dense) ScaleDense(s float64) *Dense {
	out := d.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ClampNonNegative zeroes negative entries in place and returns d; the
// projection step of the paper's NMF ("Set elements < 0 to 0").
func (d *Dense) ClampNonNegative() *Dense {
	for i, v := range d.Data {
		if v < 0 {
			d.Data[i] = 0
		}
	}
	return d
}

// Frobenius returns the Frobenius norm.
func (d *Dense) Frobenius() float64 {
	s := 0.0
	for _, v := range d.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ToSparse converts to a sparse Matrix, dropping exact zeros.
func (d *Dense) ToSparse() *Matrix {
	rows := make([][]float64, d.R)
	for i := range rows {
		rows[i] = d.Data[i*d.C : (i+1)*d.C]
	}
	return NewFromDense(rows)
}

// ToDense converts a sparse matrix to Dense.
func ToDense(a *Matrix) *Dense {
	d := NewDense(a.r, a.c)
	for i := 0; i < a.r; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			d.Data[i*a.c+a.colIdx[k]] = a.val[k]
		}
	}
	return d
}

// MulSparseDense returns A · D for sparse A and dense D.
func MulSparseDense(a *Matrix, d *Dense) *Dense {
	if a.c != d.R {
		panic(fmt.Sprintf("sparse: sparse·dense shape %d×%d · %d×%d", a.r, a.c, d.R, d.C))
	}
	out := NewDense(a.r, d.C)
	for i := 0; i < a.r; i++ {
		orow := out.Data[i*d.C : (i+1)*d.C]
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			av := a.val[k]
			drow := d.Data[a.colIdx[k]*d.C : (a.colIdx[k]+1)*d.C]
			for j, dv := range drow {
				orow[j] += av * dv
			}
		}
	}
	return out
}

// GaussJordanInverse inverts a small dense matrix exactly (partial
// pivoting). It is the oracle the Newton–Schulz iteration (paper
// Algorithm 4) is tested against; it returns false when the matrix is
// numerically singular.
func GaussJordanInverse(d *Dense) (*Dense, bool) {
	if d.R != d.C {
		panic("sparse: inverse of non-square matrix")
	}
	n := d.R
	a := d.Clone()
	inv := NewDense(n, n)
	for i := 0; i < n; i++ {
		inv.Data[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		// partial pivot
		p := col
		best := math.Abs(a.Data[col*n+col])
		for i := col + 1; i < n; i++ {
			if v := math.Abs(a.Data[i*n+col]); v > best {
				best, p = v, i
			}
		}
		if best < 1e-12 {
			return nil, false
		}
		if p != col {
			swapRows(a, p, col)
			swapRows(inv, p, col)
		}
		pivot := a.Data[col*n+col]
		for j := 0; j < n; j++ {
			a.Data[col*n+j] /= pivot
			inv.Data[col*n+j] /= pivot
		}
		for i := 0; i < n; i++ {
			if i == col {
				continue
			}
			f := a.Data[i*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a.Data[i*n+j] -= f * a.Data[col*n+j]
				inv.Data[i*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	return inv, true
}

func swapRows(d *Dense, i, j int) {
	ri := d.Data[i*d.C : (i+1)*d.C]
	rj := d.Data[j*d.C : (j+1)*d.C]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
