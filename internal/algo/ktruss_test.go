package algo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// TestKTrussPaperExample reproduces the §III.B worked example on the
// Fig. 1 graph step by step: E, A = EᵀE − diag(d), R = EA, the support
// vector s, and the 3-truss fixed point after removing edge 6.
func TestKTrussPaperExample(t *testing.T) {
	E := gen.Incidence(gen.PaperGraph())

	// A = EᵀE − diag(EᵀE) must equal the printed adjacency matrix.
	A := sparse.NoDiag(sparse.SpGEMM(sparse.Transpose(E), E, semiring.PlusTimes))
	wantA := [][]float64{
		{0, 1, 1, 1, 0},
		{1, 0, 1, 0, 1},
		{1, 1, 0, 1, 0},
		{1, 0, 1, 0, 0},
		{0, 1, 0, 0, 0},
	}
	checkDense(t, "A", A, wantA)

	// Gram diagonal = degree vector d = sum(E) = [3 3 3 2 1].
	gram := sparse.SpGEMM(sparse.Transpose(E), E, semiring.PlusTimes)
	d := sparse.ReduceCols(E, semiring.PlusMonoid)
	wantD := []float64{3, 3, 3, 2, 1}
	for i, w := range wantD {
		if d[i] != w || gram.At(i, i) != w {
			t.Fatalf("degree[%d] = %v / gram %v, want %v", i, d[i], gram.At(i, i), w)
		}
	}

	// R = EA as printed in the paper.
	R := sparse.SpGEMM(E, A, semiring.PlusTimes)
	wantR := [][]float64{
		{1, 1, 2, 1, 1},
		{2, 1, 1, 1, 1},
		{1, 1, 2, 1, 0},
		{2, 1, 1, 1, 0},
		{1, 2, 1, 2, 0},
		{1, 1, 1, 0, 1},
	}
	checkDense(t, "R", R, wantR)

	// s = (R == 2)·1. (The paper's printed s omits one row — a typo; the
	// indicator matrix it prints yields [1 1 1 1 2 0].)
	s := supportFromR(R)
	wantS := []float64{1, 1, 1, 1, 2, 0}
	for i, w := range wantS {
		if s[i] != w {
			t.Fatalf("s[%d] = %v, want %v (s=%v)", i, s[i], w, s)
		}
	}

	// 3-truss: edge 6 (index 5) is removed; the rest survive with the
	// updated R matching the paper's final matrix.
	truss := KTrussEdge(E, 3)
	if truss.Rows() != 5 {
		t.Fatalf("3-truss should keep 5 edges, got %d", truss.Rows())
	}
	wantE3 := [][]float64{
		{1, 1, 0, 0, 0},
		{0, 1, 1, 0, 0},
		{1, 0, 0, 1, 0},
		{0, 0, 1, 1, 0},
		{1, 0, 1, 0, 0},
	}
	checkDense(t, "3-truss incidence", truss, wantE3)
}

// The paper's updated R after removing edge 6.
func TestKTrussPaperExampleUpdatedR(t *testing.T) {
	E := gen.Incidence(gen.PaperGraph())
	A := sparse.NoDiag(sparse.SpGEMM(sparse.Transpose(E), E, semiring.PlusTimes))
	R := sparse.SpGEMM(E, A, semiring.PlusTimes)
	x := []int{5}
	xc := sparse.Complement(x, 6)
	Ex := sparse.SpRefRows(E, x)
	E2 := sparse.SpRefRows(E, xc)
	R2 := sparse.SpRefRows(R, xc)
	update := sparse.NoDiag(sparse.SpGEMM(sparse.Transpose(Ex), Ex, semiring.PlusTimes))
	R2 = sparse.EWiseAdd(R2, sparse.Scale(sparse.SpGEMM(E2, update, semiring.PlusTimes), -1), semiring.PlusTimes)
	want := [][]float64{
		{1, 1, 2, 1, 0},
		{2, 1, 1, 1, 0},
		{1, 1, 2, 1, 0},
		{2, 1, 1, 1, 0},
		{1, 2, 1, 2, 0},
	}
	checkDense(t, "updated R", R2, want)
	// Support unchanged ⇒ fixed point: the graph is a 3-truss.
	s := supportFromR(R2)
	for i, v := range s {
		if v < 1 {
			t.Fatalf("edge %d lost support: %v", i, v)
		}
	}
}

func checkDense(t *testing.T, name string, m *sparse.Matrix, want [][]float64) {
	t.Helper()
	d := m.Dense()
	if len(d) != len(want) {
		t.Fatalf("%s rows = %d, want %d", name, len(d), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("%s(%d,%d) = %v, want %v\ngot:\n%v", name, i, j, d[i][j], want[i][j], m)
			}
		}
	}
}

func TestKTrussCliqueSurvives(t *testing.T) {
	// K5 is a 5-truss (every edge in 3 triangles): it survives k=3,4,5
	// and vanishes at k=6.
	g := gen.Complete(5)
	E := gen.Incidence(g)
	for k := 3; k <= 5; k++ {
		truss := KTrussEdge(E, k)
		if truss.Rows() != 10 {
			t.Fatalf("K5 should fully survive k=%d, got %d edges", k, truss.Rows())
		}
	}
	if truss := KTrussEdge(E, 6); truss.Rows() != 0 {
		t.Fatalf("K5 has no 6-truss, got %d edges", truss.Rows())
	}
}

func TestKTrussPathIsTriangleFree(t *testing.T) {
	E := gen.Incidence(gen.Path(10))
	if truss := KTrussEdge(E, 3); truss.Rows() != 0 {
		t.Fatalf("path has no 3-truss, got %d edges", truss.Rows())
	}
}

func TestKTrussK2ReturnsEverything(t *testing.T) {
	E := gen.Incidence(gen.Path(5))
	if truss := KTrussEdge(E, 2); truss.Rows() != 4 {
		t.Fatalf("2-truss must keep all edges")
	}
}

func TestKTrussBarbell(t *testing.T) {
	// Two K5s joined by a path: the 4-truss is exactly the two cliques;
	// the bridge dies.
	g := gen.Barbell(5, 2)
	E := gen.Incidence(g)
	truss := KTrussEdge(E, 4)
	if truss.Rows() != 20 { // 2 × C(5,2)
		t.Fatalf("barbell 4-truss edges = %d, want 20", truss.Rows())
	}
}

func TestKTrussAdjMatchesEdgeForm(t *testing.T) {
	g := gen.Dedup(gen.ErdosRenyi(30, 120, 11))
	adj := gen.AdjacencyPattern(g)
	trussAdj := KTrussAdj(adj, 3)
	// Reference: brute-force iterative peeling on the adjacency matrix.
	want := bruteForceKTrussAdj(adj, 3)
	if !sparse.Equal(trussAdj, want) {
		t.Fatalf("KTrussAdj differs from brute force")
	}
}

// bruteForceKTrussAdj peels edges with < k−2 triangles until fixpoint.
func bruteForceKTrussAdj(adj *sparse.Matrix, k int) *sparse.Matrix {
	cur := adj.Clone()
	for {
		a2 := sparse.SpGEMM(cur, cur, semiring.PlusTimes)
		removed := false
		var keep []sparse.Triple
		for _, t := range cur.Triples() {
			if a2.At(t.Row, t.Col) >= float64(k-2) {
				keep = append(keep, t)
			} else {
				removed = true
			}
		}
		cur = sparse.NewFromTriples(adj.Rows(), adj.Cols(), keep, semiring.PlusTimes)
		if !removed {
			return cur
		}
	}
}

func TestTriangleCount(t *testing.T) {
	cases := []struct {
		g    gen.Graph
		want float64
	}{
		{gen.Complete(4), 4},
		{gen.Complete(5), 10},
		{gen.Path(6), 0},
		{gen.Cycle(3), 1},
		{gen.PaperGraph(), 2}, // triangles {v1,v2,v3} and {v1,v3,v4}
	}
	for _, c := range cases {
		if got := TriangleCount(gen.AdjacencyPattern(c.g)); got != c.want {
			t.Fatalf("triangles = %v, want %v", got, c.want)
		}
	}
}

// Property: k-truss output is a fixed point — every surviving edge has
// support ≥ k−2 — and is a subset of the input edges.
func TestQuickKTrussFixedPoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(10)
		m := rng.Intn(n * (n - 1) / 2)
		g := gen.Dedup(gen.ErdosRenyi(n, m, uint64(seed)))
		E := gen.Incidence(g)
		k := 3 + rng.Intn(3)
		truss := KTrussEdge(E, k)
		if truss.Rows() == 0 {
			return true
		}
		s := EdgeSupport(truss)
		for _, v := range s {
			if v < float64(k-2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of edge supports = 3 × triangle count.
func TestQuickSupportTriangleIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(10)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := gen.Dedup(gen.ErdosRenyi(n, m, uint64(seed)+1000))
		if len(g.Edges) == 0 {
			return true
		}
		E := gen.Incidence(g)
		s := EdgeSupport(E)
		total := 0.0
		for _, v := range s {
			total += v
		}
		return total == 3*TriangleCount(gen.AdjacencyPattern(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// EdgeSupport returns each edge's triangle support, computed via the
// full SpGEMM R = EA as the paper presents it.
func EdgeSupport(E *sparse.Matrix) []float64 {
	A := sparse.NoDiag(sparse.SpGEMM(sparse.Transpose(E), E, semiring.PlusTimes))
	return supportFromR(sparse.SpGEMM(E, A, semiring.PlusTimes))
}
