// Package semiring defines the algebraic structures — semirings, monoids,
// and unary operators — that every GraphBLAS kernel in this repository is
// generic over.
//
// A semiring (V, ⊕, ⊗, 0, 1) supplies the "addition" used to combine
// partial products and the "multiplication" used to form them. Swapping
// the standard arithmetic semiring (+, ×, 0, 1) for, e.g., the tropical
// semiring (min, +, +∞, 0) turns matrix multiplication into single-source
// shortest-path relaxation, which is how the paper's Table I classes such
// as Shortest Path are expressed with the same SpGEMM/SpMV kernels.
package semiring

import "math"

// BinaryOp is a binary operator on float64 values.
type BinaryOp func(a, b float64) float64

// UnaryOp is a unary operator on float64 values, used by the Apply kernel.
type UnaryOp func(a float64) float64

// Monoid is an associative binary operator together with its identity.
// Reduce-style kernels fold with a Monoid.
type Monoid struct {
	Name     string
	Op       BinaryOp
	Identity float64
}

// Semiring bundles the add monoid ⊕ and multiply operator ⊗ with the
// additive identity (which is also the multiplicative annihilator, i.e.
// the implicit value of unstored entries) and the multiplicative identity.
type Semiring struct {
	Name string
	// Add is the ⊕ operator used to combine colliding entries.
	Add BinaryOp
	// Mul is the ⊗ operator used to form products.
	Mul BinaryOp
	// Zero is the ⊕-identity and ⊗-annihilator; unstored entries have
	// this value.
	Zero float64
	// One is the ⊗-identity.
	One float64
}

// IsZero reports whether v equals the semiring's zero element, treating
// NaN as never zero (NaN signals a poisoned computation, not emptiness).
func (s Semiring) IsZero(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	return v == s.Zero
}

func add(a, b float64) float64 { return a + b }
func mul(a, b float64) float64 { return a * b }

func minOp(a, b float64) float64 {
	if a < b || math.IsNaN(b) {
		return a
	}
	return b
}

func maxOp(a, b float64) float64 {
	if a > b || math.IsNaN(b) {
		return a
	}
	return b
}

func orOp(a, b float64) float64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}

func andOp(a, b float64) float64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}

func firstOp(a, _ float64) float64  { return a }
func secondOp(_, b float64) float64 { return b }

// The standard semirings. These are package-level values rather than
// constructors because they are immutable and shared.
var (
	// PlusTimes is ordinary arithmetic (+, ×, 0, 1): counting walks,
	// degree sums, NMF.
	PlusTimes = Semiring{Name: "plus.times", Add: add, Mul: mul, Zero: 0, One: 1}

	// MinPlus is the tropical semiring (min, +, +∞, 0): shortest paths.
	MinPlus = Semiring{Name: "min.plus", Add: minOp, Mul: add, Zero: math.Inf(1), One: 0}

	// MaxPlus is (max, +, −∞, 0): longest / critical paths.
	MaxPlus = Semiring{Name: "max.plus", Add: maxOp, Mul: add, Zero: math.Inf(-1), One: 0}

	// OrAnd is the boolean semiring (∨, ∧, 0, 1): reachability, BFS
	// frontiers, structural products.
	OrAnd = Semiring{Name: "or.and", Add: orOp, Mul: andOp, Zero: 0, One: 1}

	// MaxMin is (max, min, 0, +∞): bottleneck / widest paths on
	// non-negative weights.
	MaxMin = Semiring{Name: "max.min", Add: maxOp, Mul: minOp, Zero: 0, One: math.Inf(1)}

	// MinMax is (min, max, +∞, 0): minimax paths.
	MinMax = Semiring{Name: "min.max", Add: minOp, Mul: maxOp, Zero: math.Inf(1), One: 0}

	// PlusMin is (+, min, 0, +∞): used e.g. to accumulate overlap sizes.
	PlusMin = Semiring{Name: "plus.min", Add: add, Mul: minOp, Zero: 0, One: math.Inf(1)}

	// PlusFirst is (+, first): multiplication keeps the left operand.
	// Useful for structural products where only A's pattern matters.
	PlusFirst = Semiring{Name: "plus.first", Add: add, Mul: firstOp, Zero: 0, One: 1}

	// PlusSecond is (+, second): multiplication keeps the right operand.
	PlusSecond = Semiring{Name: "plus.second", Add: add, Mul: secondOp, Zero: 0, One: 1}

	// PlusAnd counts, per output entry, the positions where both inputs
	// are nonzero: exactly the "overlap of neighbourhoods" product the
	// paper's §IV discussion proposes for k-truss support (it notes the
	// (+, AND) pair violates the semiring axioms; we expose it anyway as
	// an explicitly non-semiring pair for the ablation).
	PlusAnd = Semiring{Name: "plus.and", Add: add, Mul: andOp, Zero: 0, One: 1}
)

// Standard returns the named semirings ByName resolves, for callers
// that enumerate them (e.g. deriving the set of result-table
// combiners).
func Standard() []Semiring {
	return []Semiring{
		PlusTimes, MinPlus, MaxPlus, OrAnd, MaxMin, MinMax, PlusMin,
		PlusFirst, PlusSecond, PlusAnd,
	}
}

// ByName resolves a standard semiring from its name, for iterator
// options and CLI flags.
func ByName(name string) (Semiring, bool) {
	for _, s := range Standard() {
		if s.Name == name {
			return s, true
		}
	}
	return Semiring{}, false
}

// Standard monoids for Reduce-style kernels.
var (
	PlusMonoid = Monoid{Name: "plus", Op: add, Identity: 0}
	MinMonoid  = Monoid{Name: "min", Op: minOp, Identity: math.Inf(1)}
	MaxMonoid  = Monoid{Name: "max", Op: maxOp, Identity: math.Inf(-1)}
)

// OneIfNonzero maps any nonzero to 1 (pattern extraction); a common
// unary operator for the Apply kernel.
var OneIfNonzero UnaryOp = func(a float64) float64 {
	if a != 0 {
		return 1
	}
	return 0
}

// EqualsIndicator returns a UnaryOp mapping v to 1 when v == target and
// to 0 otherwise. The paper's k-truss algorithm uses target = 2 to pick
// out adjacency overlaps from R = EA.
func EqualsIndicator(target float64) UnaryOp {
	return func(a float64) float64 {
		if a == target {
			return 1
		}
		return 0
	}
}

// ScaleBy returns a UnaryOp multiplying by c (the Scale kernel is Apply
// with this operator).
func ScaleBy(c float64) UnaryOp {
	return func(a float64) float64 { return c * a }
}

// ThresholdBelow returns a UnaryOp that zeroes values strictly below t.
func ThresholdBelow(t float64) UnaryOp {
	return func(a float64) float64 {
		if a < t {
			return 0
		}
		return a
	}
}
