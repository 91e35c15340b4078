package sparse

import (
	"math"
	"math/rand"
	"testing"

	"graphulo/internal/semiring"
)

func TestDenseMulAgainstSparse(t *testing.T) {
	a := randMatrix(7, 5, 0.4, 21)
	b := randMatrix(5, 6, 0.4, 22)
	da, db := ToDense(a), ToDense(b)
	got := da.MulDense(db)
	want := ToDense(SpGEMM(a, b, semiring.PlusTimes))
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("dense mul differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMixedSparseDenseProducts(t *testing.T) {
	a := randMatrix(6, 4, 0.5, 23)
	d := DenseFromRows([][]float64{
		{1, 2}, {3, 4}, {5, 6}, {7, 8},
	})
	got := MulSparseDense(a, d)
	want := ToDense(a).MulDense(d)
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-9 {
			t.Fatalf("sparse·dense differs at %d", i)
		}
	}
}

func TestDenseOps(t *testing.T) {
	d := DenseFromRows([][]float64{{1, -2}, {3, 4}})
	if d.At(0, 1) != -2 {
		t.Fatalf("At wrong")
	}
	d2 := d.Clone()
	d2.Set(0, 0, 10)
	if d.At(0, 0) != 1 {
		t.Fatalf("Clone not independent")
	}
	tT := d.T()
	if tT.At(1, 0) != -2 {
		t.Fatalf("T wrong")
	}
	s := d.AddDense(d).SubDense(d)
	for i := range s.Data {
		if s.Data[i] != d.Data[i] {
			t.Fatalf("add/sub roundtrip wrong")
		}
	}
	sc := d.ScaleDense(2)
	if sc.At(1, 1) != 8 {
		t.Fatalf("scale wrong")
	}
	cl := DenseFromRows([][]float64{{-1, 2}}).ClampNonNegative()
	if cl.At(0, 0) != 0 || cl.At(0, 1) != 2 {
		t.Fatalf("clamp wrong")
	}
	f := DenseFromRows([][]float64{{3, 4}}).Frobenius()
	if f != 5 {
		t.Fatalf("frobenius = %v", f)
	}
}

func TestDenseSparseRoundTrip(t *testing.T) {
	a := randMatrix(9, 9, 0.2, 25)
	back := ToDense(a).ToSparse()
	if !Equal(a, back) {
		t.Fatalf("dense round trip changed matrix")
	}
}

func TestGaussJordanInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(6)
		// Diagonally dominant ⇒ invertible.
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			row := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64() - 0.5
					m.Set(i, j, v)
					row += math.Abs(v)
				}
			}
			m.Set(i, i, row+1+rng.Float64())
		}
		inv, ok := GaussJordanInverse(m)
		if !ok {
			t.Fatalf("trial %d: inverse failed on nonsingular matrix", trial)
		}
		prod := m.MulDense(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("trial %d: M·M⁻¹ differs from I at (%d,%d): %v", trial, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestGaussJordanSingular(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, ok := GaussJordanInverse(m); ok {
		t.Fatalf("singular matrix should not invert")
	}
}
