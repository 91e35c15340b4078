package sparse

import (
	"math"
	"math/rand"
	"testing"

	"graphulo/internal/semiring"
)

// randMatrix returns a random r×c matrix with roughly density·r·c entries
// drawn from {1..9}, deterministic per seed.
func randMatrix(r, c int, density float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	var ts []Triple
	n := int(density * float64(r) * float64(c))
	for i := 0; i < n; i++ {
		ts = append(ts, Triple{rng.Intn(r), rng.Intn(c), float64(1 + rng.Intn(9))})
	}
	return NewFromTriples(r, c, ts, semiring.PlusTimes)
}

// denseMul is the reference O(n³) multiply used to validate SpGEMM.
func denseMul(a, b [][]float64, ring semiring.Semiring) [][]float64 {
	r, inner, c := len(a), len(b), len(b[0])
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
		for j := 0; j < c; j++ {
			acc := ring.Zero
			for l := 0; l < inner; l++ {
				av, bv := a[i][l], b[l][j]
				// Respect sparsity semantics: unstored entries do not
				// contribute products.
				if av == 0 || bv == 0 {
					continue
				}
				acc = ring.Add(acc, ring.Mul(av, bv))
			}
			out[i][j] = acc
		}
	}
	return out
}

func sameDense(t *testing.T, got *Matrix, want [][]float64, zero float64) {
	t.Helper()
	d := got.Dense()
	for i := range want {
		for j := range want[i] {
			w := want[i][j]
			if w == zero {
				w = 0 // unstored representation
			}
			if d[i][j] != w && !(d[i][j] == 0 && w == zero) {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestNewFromTriplesDedup(t *testing.T) {
	m := NewFromTriples(2, 2, []Triple{{0, 0, 1}, {0, 0, 2}, {1, 1, 5}, {1, 1, -5}}, semiring.PlusTimes)
	if m.At(0, 0) != 3 {
		t.Errorf("At(0,0) = %v, want 3 (1+2 combined)", m.At(0, 0))
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (5 + -5 annihilates)", m.NNZ())
	}
	if err := m.checkBuilt(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestNewFromTriplesMinPlusDedup(t *testing.T) {
	m := NewFromTriples(1, 1, []Triple{{0, 0, 7}, {0, 0, 3}}, semiring.MinPlus)
	if m.At(0, 0) != 3 {
		t.Errorf("min-combine = %v, want 3", m.At(0, 0))
	}
}

func TestNewFromTriplesOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-bounds triple")
		}
	}()
	NewFromTriples(2, 2, []Triple{{2, 0, 1}}, semiring.PlusTimes)
}

func TestEyeDiagAt(t *testing.T) {
	e := Eye(4)
	if e.NNZ() != 4 || e.At(2, 2) != 1 || e.At(0, 1) != 0 {
		t.Errorf("Eye(4) wrong: %v", e)
	}
	d := Diag([]float64{1, 0, 3})
	if d.NNZ() != 2 || d.At(2, 2) != 3 || d.At(1, 1) != 0 {
		t.Errorf("Diag wrong: %v", d)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	in := [][]float64{{1, 0, 2}, {0, 0, 0}, {3, 4, 0}}
	m := NewFromDense(in)
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4", m.NNZ())
	}
	out := m.Dense()
	for i := range in {
		for j := range in[i] {
			if in[i][j] != out[i][j] {
				t.Fatalf("(%d,%d): %v != %v", i, j, in[i][j], out[i][j])
			}
		}
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	m := randMatrix(20, 30, 0.1, 1)
	m2 := NewFromTriples(20, 30, m.Triples(), semiring.PlusTimes)
	if !Equal(m, m2) {
		t.Fatalf("triples round trip changed the matrix")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := randMatrix(5, 5, 0.5, 2)
	c := m.Clone()
	if !Equal(m, c) {
		t.Fatalf("clone differs")
	}
	if c.NNZ() > 0 {
		c.val[0] += 100
		if Equal(m, c) {
			t.Fatalf("clone shares storage with original")
		}
	}
}

func TestSpGEMMAgainstDense(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := randMatrix(13, 17, 0.2, seed)
		b := randMatrix(17, 11, 0.2, seed+100)
		got := SpGEMM(a, b, semiring.PlusTimes)
		want := denseMul(a.Dense(), b.Dense(), semiring.PlusTimes)
		sameDense(t, got, want, 0)
		if err := got.checkBuilt(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	}
}

func TestSpGEMMMinPlus(t *testing.T) {
	// Shortest paths through one intermediate hop.
	inf := math.Inf(1)
	a := NewFromTriples(2, 2, []Triple{{0, 1, 3}, {1, 0, 2}}, semiring.MinPlus)
	c := SpGEMM(a, a, semiring.MinPlus)
	// (0,0) = 3+2 = 5; (1,1) = 2+3 = 5; off-diagonals have no 2-paths.
	if c.At(0, 0) != 5 || c.At(1, 1) != 5 {
		t.Fatalf("min.plus square wrong:\n%v", c)
	}
	_ = inf
}

func TestSpGEMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	SpGEMM(New(2, 3), New(4, 2), semiring.PlusTimes)
}

func TestSpMVAgainstDense(t *testing.T) {
	a := randMatrix(9, 7, 0.3, 3)
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	y := SpMV(a, x, semiring.PlusTimes)
	d := a.Dense()
	for i := range y {
		want := 0.0
		for j := range x {
			want += d[i][j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestSpMSpVMatchesSpMV(t *testing.T) {
	a := randMatrix(40, 30, 0.1, 5)
	xs := NewVector(40, []int{3, 17, 39}, []float64{1, 2, 1}, semiring.PlusTimes)
	got := SpMSpV(a, xs, semiring.PlusTimes).Dense()
	// Reference: xᵀA via SpMV on Aᵀ.
	want := SpMV(Transpose(a), xs.Dense(), semiring.PlusTimes)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("SpMSpV[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(5, []int{4, 1, 1}, []float64{2, 1, 1}, semiring.PlusTimes)
	if v.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", v.NNZ())
	}
	d := v.Dense()
	if d[1] != 2 || d[4] != 2 {
		t.Fatalf("dense = %v", d)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestEqualAndApproxEqual(t *testing.T) {
	a := randMatrix(10, 10, 0.2, 9)
	if !Equal(a, a.Clone()) {
		t.Fatalf("Equal(a, clone) = false")
	}
	b := EWiseAdd(a, Scale(Eye(10), 1e-12), semiring.PlusTimes)
	if Equal(a, b) {
		t.Fatalf("Equal should detect the perturbation")
	}
	if !ApproxEqual(a, b, 1e-9) {
		t.Fatalf("ApproxEqual should tolerate 1e-12")
	}
	if ApproxEqual(a, New(10, 9), 1) {
		t.Fatalf("shape mismatch must not be approx-equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := Eye(2)
	if s := small.String(); len(s) == 0 {
		t.Fatalf("empty String for small matrix")
	}
	big := New(100, 100)
	if s := big.String(); len(s) == 0 || len(s) > 200 {
		t.Fatalf("large matrix should summarise, got %q", s)
	}
}
