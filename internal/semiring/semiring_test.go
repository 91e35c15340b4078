package semiring

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPlusTimesBasics(t *testing.T) {
	s := PlusTimes
	if got := s.Add(2, 3); got != 5 {
		t.Errorf("Add(2,3) = %v, want 5", got)
	}
	if got := s.Mul(2, 3); got != 6 {
		t.Errorf("Mul(2,3) = %v, want 6", got)
	}
	if !s.IsZero(0) || s.IsZero(1) {
		t.Errorf("IsZero misbehaves")
	}
}

func TestMinPlusBasics(t *testing.T) {
	s := MinPlus
	if got := s.Add(2, 3); got != 2 {
		t.Errorf("min(2,3) = %v, want 2", got)
	}
	if got := s.Mul(2, 3); got != 5 {
		t.Errorf("plus(2,3) = %v, want 5", got)
	}
	if !s.IsZero(math.Inf(1)) {
		t.Errorf("+Inf should be MinPlus zero")
	}
	if s.IsZero(0) {
		t.Errorf("0 is the MinPlus One, not Zero")
	}
}

func TestOrAndBoolean(t *testing.T) {
	s := OrAnd
	cases := []struct{ a, b, or, and float64 }{
		{0, 0, 0, 0}, {0, 5, 1, 0}, {3, 0, 1, 0}, {2, 7, 1, 1},
	}
	for _, c := range cases {
		if got := s.Add(c.a, c.b); got != c.or {
			t.Errorf("or(%v,%v) = %v, want %v", c.a, c.b, got, c.or)
		}
		if got := s.Mul(c.a, c.b); got != c.and {
			t.Errorf("and(%v,%v) = %v, want %v", c.a, c.b, got, c.and)
		}
	}
}

// checkAxioms checks the semiring laws over values drawn by dom, which
// maps arbitrary int8s into the semiring's carrier set (the boolean
// semiring is only a semiring on {0,1}; the bottleneck semirings only on
// non-negative reals). Floating-point + and × are not exactly
// associative/distributive, so the arithmetic semiring is checked with a
// tolerance; the idempotent semirings must satisfy the laws exactly.
func checkAxioms(t *testing.T, s Semiring, exact bool, dom func(int8) float64) {
	t.Helper()
	approx := func(a, b float64) bool {
		if math.IsInf(a, 0) || math.IsInf(b, 0) {
			return a == b
		}
		if exact {
			return a == b
		}
		d := math.Abs(a - b)
		return d <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	f := func(ai, bi, ci int8) bool {
		a, b, c := dom(ai), dom(bi), dom(ci)
		// ⊕ associative and commutative with identity Zero
		if !approx(s.Add(s.Add(a, b), c), s.Add(a, s.Add(b, c))) {
			return false
		}
		if !approx(s.Add(a, b), s.Add(b, a)) {
			return false
		}
		if !approx(s.Add(a, s.Zero), a) {
			return false
		}
		// ⊗ associative with identity One
		if !approx(s.Mul(s.Mul(a, b), c), s.Mul(a, s.Mul(b, c))) {
			return false
		}
		if !approx(s.Mul(a, s.One), a) || !approx(s.Mul(s.One, a), a) {
			return false
		}
		// Zero annihilates
		if !approx(s.Mul(a, s.Zero), s.Zero) || !approx(s.Mul(s.Zero, a), s.Zero) {
			return false
		}
		// distributivity
		if !approx(s.Mul(a, s.Add(b, c)), s.Add(s.Mul(a, b), s.Mul(a, c))) {
			return false
		}
		if !approx(s.Mul(s.Add(a, b), c), s.Add(s.Mul(a, c), s.Mul(b, c))) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("%s violates semiring axioms: %v", s.Name, err)
	}
}

func TestSemiringAxioms(t *testing.T) {
	anyReal := func(v int8) float64 { return float64(v % 7) }
	nonNeg := func(v int8) float64 {
		x := float64(v % 7)
		return math.Abs(x)
	}
	boolean := func(v int8) float64 { return float64(v & 1) }
	checkAxioms(t, PlusTimes, false, anyReal)
	checkAxioms(t, MinPlus, true, anyReal)
	checkAxioms(t, MaxPlus, true, anyReal)
	checkAxioms(t, OrAnd, true, boolean)
	checkAxioms(t, MaxMin, true, nonNeg)
	checkAxioms(t, MinMax, true, nonNeg)
}

// The paper's §IV notes (+, AND) violates the semiring axioms: AND does
// not distribute over +. Verify we can exhibit a counterexample, so the
// ablation is honest about being outside the algebra.
func TestPlusAndIsNotASemiring(t *testing.T) {
	s := PlusAnd
	// and(1, 1+1) = 1 but and(1,1) + and(1,1) = 2.
	lhs := s.Mul(1, s.Add(1, 1))
	rhs := s.Add(s.Mul(1, 1), s.Mul(1, 1))
	if lhs == rhs {
		t.Fatalf("expected distributivity to fail for plus.and, got %v == %v", lhs, rhs)
	}
}

// fold folds xs with the monoid, starting from its identity.
func fold(m Monoid, xs ...float64) float64 {
	acc := m.Identity
	for _, x := range xs {
		acc = m.Op(acc, x)
	}
	return acc
}

func TestMonoidReduce(t *testing.T) {
	if got := fold(PlusMonoid, 1, 2, 3, 4); got != 10 {
		t.Errorf("sum = %v, want 10", got)
	}
	if got := fold(MinMonoid, 3, 1, 2); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := fold(MaxMonoid); !math.IsInf(got, -1) {
		t.Errorf("empty max = %v, want -Inf", got)
	}
}

func TestUnaryOps(t *testing.T) {
	if EqualsIndicator(2)(2) != 1 || EqualsIndicator(2)(3) != 0 {
		t.Errorf("EqualsIndicator wrong")
	}
	if OneIfNonzero(7) != 1 || OneIfNonzero(0) != 0 {
		t.Errorf("OneIfNonzero wrong")
	}
	if ScaleBy(3)(5) != 15 {
		t.Errorf("ScaleBy wrong")
	}
	if ThresholdBelow(2)(1.5) != 0 || ThresholdBelow(2)(2.5) != 2.5 {
		t.Errorf("ThresholdBelow wrong")
	}
}

func TestIsZeroNaN(t *testing.T) {
	if PlusTimes.IsZero(math.NaN()) {
		t.Errorf("NaN must not be considered zero")
	}
}
