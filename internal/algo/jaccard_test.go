package algo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// TestJaccardPaperExample reproduces Fig. 2 exactly: U, U², UUᵀ, UᵀU,
// and the final Jaccard fractions (1/5, 1/2, 1/4, 1/3, 2/3, …).
func TestJaccardPaperExample(t *testing.T) {
	adj := gen.AdjacencyPattern(gen.PaperGraph())
	U := sparse.Triu(adj, 1)
	checkDense(t, "U", U, [][]float64{
		{0, 1, 1, 1, 0},
		{0, 0, 1, 0, 1},
		{0, 0, 0, 1, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
	})
	U2 := sparse.SpGEMM(U, U, semiring.PlusTimes)
	checkDense(t, "U²", U2, [][]float64{
		{0, 0, 1, 1, 1},
		{0, 0, 0, 1, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
	})
	X := sparse.SpGEMM(U, sparse.Transpose(U), semiring.PlusTimes)
	checkDense(t, "UUᵀ", X, [][]float64{
		{3, 1, 1, 0, 0},
		{1, 2, 0, 0, 0},
		{1, 0, 1, 0, 0},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
	})
	Y := sparse.SpGEMM(sparse.Transpose(U), U, semiring.PlusTimes)
	checkDense(t, "UᵀU", Y, [][]float64{
		{0, 0, 0, 0, 0},
		{0, 1, 1, 1, 0},
		{0, 1, 2, 1, 1},
		{0, 1, 1, 2, 0},
		{0, 0, 1, 0, 1},
	})

	// Numerator J = U² + triu(X) + triu(Y), diagonal removed — the
	// middle matrix of Fig. 2.
	num := sparse.EWiseAdd(U2, sparse.Triu(X, 0), semiring.PlusTimes)
	num = sparse.EWiseAdd(num, sparse.Triu(Y, 0), semiring.PlusTimes)
	num = sparse.NoDiag(num)
	checkDense(t, "numerator", num, [][]float64{
		{0, 1, 2, 1, 1},
		{0, 0, 1, 2, 0},
		{0, 0, 0, 1, 1},
		{0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0},
	})

	// Final symmetric Jaccard matrix with Fig. 2's fractions.
	J := Jaccard(adj)
	want := [][]float64{
		{0, 1.0 / 5, 1.0 / 2, 1.0 / 4, 1.0 / 3},
		{1.0 / 5, 0, 1.0 / 5, 2.0 / 3, 0},
		{1.0 / 2, 1.0 / 5, 0, 1.0 / 4, 1.0 / 3},
		{1.0 / 4, 2.0 / 3, 1.0 / 4, 0, 0},
		{1.0 / 3, 0, 1.0 / 3, 0, 0},
	}
	d := J.Dense()
	for i := range want {
		for j := range want[i] {
			if math.Abs(d[i][j]-want[i][j]) > 1e-12 {
				t.Fatalf("J(%d,%d) = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestJaccardMatchesDenseFormulation(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.Dedup(gen.ErdosRenyi(30, 100, seed))
		adj := gen.AdjacencyPattern(g)
		a := Jaccard(adj)
		b := JaccardDense(adj)
		if !sparse.ApproxEqual(a, b, 1e-12) {
			t.Fatalf("seed %d: triangular and dense Jaccard disagree", seed)
		}
	}
}

func TestJaccardCompleteGraph(t *testing.T) {
	// In K_n any two vertices share n−2 neighbours out of n (union
	// includes each other): J = (n−2)/n.
	adj := gen.AdjacencyPattern(gen.Complete(6))
	J := Jaccard(adj)
	want := 4.0 / 6.0
	if math.Abs(J.At(0, 3)-want) > 1e-12 {
		t.Fatalf("K6 Jaccard = %v, want %v", J.At(0, 3), want)
	}
}

func TestLinkPrediction(t *testing.T) {
	// Two vertices with identical neighbourhoods but no edge between
	// them should be the top predicted link: a 4-cycle 0-1-2-3 where 0
	// and 2 share {1,3}.
	adj := gen.AdjacencyPattern(gen.Cycle(4))
	preds := LinkPrediction(adj, 5)
	if len(preds) == 0 {
		t.Fatalf("no predictions")
	}
	top := preds[0]
	if !(top.U == 0 && top.V == 2 || top.U == 1 && top.V == 3) {
		t.Fatalf("top prediction = %+v, want diagonal of the 4-cycle", top)
	}
	if top.Score != 1 {
		t.Fatalf("identical neighbourhoods should score 1, got %v", top.Score)
	}
	// Predictions never include existing edges.
	for _, p := range preds {
		if adj.At(p.U, p.V) != 0 {
			t.Fatalf("predicted an existing edge %+v", p)
		}
	}
}

// Property: Jaccard values lie in [0, 1], the matrix is symmetric with
// zero diagonal, and J(u,v) = 1 whenever N(u) = N(v) ≠ ∅.
func TestQuickJaccardProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(15)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := gen.Dedup(gen.ErdosRenyi(n, m, uint64(seed)+5000))
		adj := gen.AdjacencyPattern(g)
		J := Jaccard(adj)
		for _, tr := range J.Triples() {
			if tr.Val < 0 || tr.Val > 1 {
				return false
			}
			if tr.Row == tr.Col {
				return false
			}
			if math.Abs(J.At(tr.Col, tr.Row)-tr.Val) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
