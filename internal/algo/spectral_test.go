package algo

import (
	"math"
	"sort"
	"testing"

	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

func TestTruncatedSVDDiagonal(t *testing.T) {
	// Diagonal matrix: singular values are the |diagonal| sorted desc.
	a := sparse.Diag([]float64{3, 7, 1, 5})
	res := TruncatedSVD(a, 4, 1e-12, 2000)
	want := []float64{7, 5, 3, 1}
	for i, w := range want {
		if math.Abs(res.S[i]-w) > 1e-6 {
			t.Fatalf("σ%d = %v, want %v (all %v)", i, res.S[i], w, res.S)
		}
	}
}

func TestTruncatedSVDReconstruction(t *testing.T) {
	// Full-rank k = min(m,n) SVD must reconstruct A.
	a := sparse.NewFromDense([][]float64{
		{2, 0, 1},
		{0, 3, 0},
		{1, 0, 2},
		{0, 1, 0},
	})
	res := TruncatedSVD(a, 3, 1e-13, 5000)
	// A ≈ U Σ Vᵀ.
	recon := sparse.NewDense(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for c := 0; c < 3; c++ {
				s += res.U.At(i, c) * res.S[c] * res.V.At(j, c)
			}
			recon.Set(i, j, s)
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(recon.At(i, j)-a.At(i, j)) > 1e-5 {
				t.Fatalf("reconstruction (%d,%d): %v vs %v", i, j, recon.At(i, j), a.At(i, j))
			}
		}
	}
	// Orthonormal right vectors.
	for c1 := 0; c1 < 3; c1++ {
		for c2 := 0; c2 < 3; c2++ {
			d := 0.0
			for i := 0; i < 3; i++ {
				d += res.V.At(i, c1) * res.V.At(i, c2)
			}
			want := 0.0
			if c1 == c2 {
				want = 1
			}
			if math.Abs(d-want) > 1e-5 {
				t.Fatalf("V columns not orthonormal: <%d,%d> = %v", c1, c2, d)
			}
		}
	}
}

func TestTruncatedSVDLowRank(t *testing.T) {
	// Rank-1 matrix: one big singular value, rest ~0.
	var ts []sparse.Triple
	u := []float64{1, 2, 3}
	v := []float64{4, 0, 5, 6}
	for i := range u {
		for j := range v {
			if u[i]*v[j] != 0 {
				ts = append(ts, sparse.Triple{Row: i, Col: j, Val: u[i] * v[j]})
			}
		}
	}
	a := sparse.NewFromTriples(3, 4, ts, semiring.PlusTimes)
	res := TruncatedSVD(a, 2, 1e-12, 2000)
	wantSigma := norm(u) * norm(v)
	if math.Abs(res.S[0]-wantSigma) > 1e-6 {
		t.Fatalf("σ1 = %v, want %v", res.S[0], wantSigma)
	}
	if res.S[1] > 1e-6 {
		t.Fatalf("rank-1 matrix has σ2 = %v", res.S[1])
	}
}

func TestVertexNominationFindsCommunity(t *testing.T) {
	// Two cliques joined by one bridge edge; cues in clique A must
	// nominate the remaining clique-A vertices above all of clique B.
	g := gen.Barbell(6, 0) // vertices 0..5 clique A, 6..11 clique B
	adj := gen.AdjacencyPattern(gen.Dedup(g))
	cues := []int{0, 1}
	scores := VertexNomination(adj, cues, 0.15, 500)
	type vs struct {
		v int
		s float64
	}
	var ranked []vs
	for v, s := range scores {
		if v != 0 && v != 1 { // exclude the cues themselves
			ranked = append(ranked, vs{v, s})
		}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].s > ranked[j].s })
	// The top 4 nominations must be the rest of clique A {2,3,4,5}.
	top := map[int]bool{}
	for _, r := range ranked[:4] {
		top[r.v] = true
	}
	for _, v := range []int{2, 3, 4, 5} {
		if !top[v] {
			t.Fatalf("clique member %d not nominated; ranking %v", v, ranked[:6])
		}
	}
}

func TestVertexNominationMassConcentration(t *testing.T) {
	g := gen.Dedup(gen.ErdosRenyi(40, 80, 17))
	adj := gen.AdjacencyPattern(g)
	scores := VertexNomination(adj, []int{3}, 0.2, 500)
	sum := 0.0
	best, bestV := -1.0, -1
	for v, s := range scores {
		sum += s
		if s > best {
			best, bestV = s, v
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("nomination scores sum to %v", sum)
	}
	if bestV != 3 {
		t.Fatalf("cue should hold the most mass, got vertex %d", bestV)
	}
}
