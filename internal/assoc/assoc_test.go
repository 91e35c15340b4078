package assoc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

func small() *Assoc {
	return New([]Entry{
		{"alice", "bob", 1},
		{"alice", "carol", 2},
		{"bob", "carol", 3},
	}, semiring.PlusTimes)
}

func TestNewAndAt(t *testing.T) {
	a := small()
	if a.At("alice", "bob") != 1 || a.At("bob", "carol") != 3 {
		t.Fatalf("At wrong")
	}
	if a.At("zelda", "bob") != 0 || a.At("alice", "zelda") != 0 {
		t.Fatalf("missing keys should read zero")
	}
	if a.NNZ() != 3 {
		t.Fatalf("NNZ = %d", a.NNZ())
	}
	rows := a.Rows()
	if len(rows) != 2 || rows[0] != "alice" || rows[1] != "bob" {
		t.Fatalf("rows = %v", rows)
	}
	cols := a.Cols()
	if len(cols) != 2 || cols[0] != "bob" || cols[1] != "carol" {
		t.Fatalf("cols = %v (empty rows/cols must be dropped)", cols)
	}
}

func TestDuplicateKeysCombine(t *testing.T) {
	a := New([]Entry{{"r", "c", 2}, {"r", "c", 5}}, semiring.PlusTimes)
	if a.At("r", "c") != 7 {
		t.Fatalf("want 7, got %v", a.At("r", "c"))
	}
	m := New([]Entry{{"r", "c", 2}, {"r", "c", 5}}, semiring.MinPlus)
	if m.At("r", "c") != 2 {
		t.Fatalf("min combine: want 2, got %v", m.At("r", "c"))
	}
}

func TestMinPlusMissingReadsInf(t *testing.T) {
	m := New([]Entry{{"a", "b", 0}}, semiring.MinPlus)
	// 0 is a legitimate stored value under min.plus (the One).
	if m.At("a", "b") != 0 {
		t.Fatalf("stored 0 lost")
	}
	if v := m.At("a", "zzz"); !(v > 1e308) {
		t.Fatalf("missing key should read +Inf, got %v", v)
	}
}

func TestAddIsUnion(t *testing.T) {
	a := New([]Entry{{"x", "p", 1}, {"y", "q", 2}}, semiring.PlusTimes)
	b := New([]Entry{{"x", "p", 10}, {"z", "r", 3}}, semiring.PlusTimes)
	c := Add(a, b)
	if c.At("x", "p") != 11 {
		t.Fatalf("common key should combine: %v", c.At("x", "p"))
	}
	if c.At("y", "q") != 2 || c.At("z", "r") != 3 {
		t.Fatalf("union lost keys")
	}
	if len(c.Rows()) != 3 {
		t.Fatalf("rows = %v", c.Rows())
	}
}

func TestMultiplyAlignsOnKeys(t *testing.T) {
	// docs×terms correlation: (docs×terms)·(terms×docs) counts shared terms.
	a := New([]Entry{
		{"doc1", "cat", 1}, {"doc1", "dog", 1},
		{"doc2", "dog", 1}, {"doc2", "emu", 1},
	}, semiring.PlusTimes)
	c := Multiply(a, a.Transpose())
	if c.At("doc1", "doc2") != 1 { // shared term: dog
		t.Fatalf("correlation wrong: %v", c.At("doc1", "doc2"))
	}
	if c.At("doc1", "doc1") != 2 {
		t.Fatalf("self-correlation wrong: %v", c.At("doc1", "doc1"))
	}
}

func TestMultiplyDisjointKeysIsEmpty(t *testing.T) {
	a := New([]Entry{{"r", "x", 1}}, semiring.PlusTimes)
	b := New([]Entry{{"y", "c", 1}}, semiring.PlusTimes)
	c := Multiply(a, b)
	if c.NNZ() != 0 {
		t.Fatalf("disjoint inner keys must produce empty product")
	}
}

func TestTranspose(t *testing.T) {
	a := small()
	at := a.Transpose()
	if at.At("bob", "alice") != 1 || at.At("carol", "bob") != 3 {
		t.Fatalf("transpose wrong")
	}
	if !Equal(a, at.Transpose()) {
		t.Fatalf("double transpose differs")
	}
}

func TestApplyScale(t *testing.T) {
	a := small().Scale(10)
	if a.At("alice", "carol") != 20 {
		t.Fatalf("scale wrong")
	}
	ind := small().Apply(semiring.EqualsIndicator(3))
	if ind.NNZ() != 1 || ind.At("bob", "carol") != 1 {
		t.Fatalf("indicator apply wrong")
	}
}

func TestSubRef(t *testing.T) {
	a := small()
	s := a.SubRef([]string{"alice"}, nil)
	if s.NNZ() != 2 || len(s.Rows()) != 1 {
		t.Fatalf("SubRef rows wrong: %v", s)
	}
	s2 := a.SubRef(nil, []string{"carol", "nosuch"})
	if s2.NNZ() != 2 || len(s2.Cols()) != 1 {
		t.Fatalf("SubRef cols wrong")
	}
}

func TestReduce(t *testing.T) {
	a := small()
	deg := a.ReduceRows(semiring.PlusMonoid)
	if deg["alice"] != 3 || deg["bob"] != 3 {
		t.Fatalf("row reduce = %v", deg)
	}
	in := a.ReduceCols(semiring.PlusMonoid)
	if in["bob"] != 1 || in["carol"] != 5 {
		t.Fatalf("col reduce = %v", in)
	}
}

func TestFromMatrixValidation(t *testing.T) {
	m := sparse.Eye(2)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for wrong label count")
		}
	}()
	FromMatrix(m, []string{"a"}, []string{"x", "y"}, semiring.PlusTimes)
}

func TestMatrixAccessorCopies(t *testing.T) {
	a := small()
	m, rows, cols := a.Matrix()
	if m.NNZ() != 3 || len(rows) != 2 || len(cols) != 2 {
		t.Fatalf("Matrix() wrong shape")
	}
}

// Property: Add is commutative and associative on random key sets.
func TestQuickAddLaws(t *testing.T) {
	gen := func(seed int64) *Assoc {
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"a", "b", "c", "d"}
		n := 1 + rng.Intn(8)
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{keys[rng.Intn(4)], keys[rng.Intn(4)], float64(1 + rng.Intn(5))}
		}
		return New(es, semiring.PlusTimes)
	}
	f := func(s1, s2, s3 int64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		if !Equal(Add(a, b), Add(b, a)) {
			return false
		}
		return Equal(Add(Add(a, b), c), Add(a, Add(b, c)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Multiply agrees with plain sparse SpGEMM when keys already
// align (labels are index strings with equal padding).
func TestQuickMultiplyMatchesSpGEMM(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"k0", "k1", "k2", "k3", "k4"}
		var ea, eb []Entry
		for i := 0; i < 10; i++ {
			ea = append(ea, Entry{names[rng.Intn(5)], names[rng.Intn(5)], 1})
			eb = append(eb, Entry{names[rng.Intn(5)], names[rng.Intn(5)], 1})
		}
		a, b := New(ea, semiring.PlusTimes), New(eb, semiring.PlusTimes)
		c := Multiply(a, b)
		// Reference: brute-force over keys.
		for _, r := range a.Rows() {
			for _, col := range b.Cols() {
				want := 0.0
				for _, k := range a.Cols() {
					want += a.At(r, k) * b.At(k, col)
				}
				if c.At(r, col) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	if s := small().String(); !strings.Contains(s, "alice") {
		t.Fatalf("String() should include keys, got %q", s)
	}
	var es []Entry
	for i := 0; i < 30; i++ {
		es = append(es, Entry{string(rune('a' + i)), "c", 1})
	}
	big := New(es, semiring.PlusTimes)
	if s := big.String(); !strings.Contains(s, "nnz") {
		t.Fatalf("large arrays should summarise, got %q", s)
	}
}
