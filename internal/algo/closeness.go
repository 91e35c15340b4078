package algo

import (
	"math"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// This file implements the centrality metrics the paper defers:
// "Other metrics, such as closeness centrality, will be the subject of
// future work" (§III.A). Closeness, harmonic closeness, HITS, and local
// clustering coefficients all reduce to the same kernel set.

// ClosenessCentrality returns, per vertex, (n_reachable − 1) / Σ d(v,u):
// the reciprocal mean shortest-path distance to the vertices it can
// reach (the Wasserman–Faust normalisation handles disconnected
// graphs). Unweighted distances via BFS frontier expansion.
func ClosenessCentrality(adj *sparse.Matrix) []float64 {
	n := adj.Rows()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		levels := BFSLevels(adj, v)
		sum, reach := 0.0, 0
		for _, l := range levels {
			if l > 0 {
				sum += float64(l)
				reach++
			}
		}
		if sum > 0 {
			// Scale by the reachable fraction so vertices in large
			// components rank above vertices in tiny ones.
			out[v] = (float64(reach) / float64(n-1)) * (float64(reach) / sum)
		}
	}
	return out
}

// HarmonicCentrality returns Σ_u 1/d(v,u), which is well defined on
// disconnected graphs without normalisation tricks.
func HarmonicCentrality(adj *sparse.Matrix) []float64 {
	n := adj.Rows()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		levels := BFSLevels(adj, v)
		for _, l := range levels {
			if l > 0 {
				out[v] += 1 / float64(l)
			}
		}
	}
	return out
}

// HITSResult carries hub and authority scores.
type HITSResult struct {
	Hubs        []float64
	Authorities []float64
	Iterations  int
	Converged   bool
}

// HITS computes Kleinberg's hubs and authorities by alternating
// a = Aᵀh, h = Aa with normalisation — two SpMVs per round.
func HITS(adj *sparse.Matrix, tol float64, maxIter int) HITSResult {
	n := adj.Rows()
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 1000
	}
	at := sparse.Transpose(adj)
	h := make([]float64, n)
	for i := range h {
		h[i] = 1
	}
	normalize(h)
	var a []float64
	for it := 1; it <= maxIter; it++ {
		a = sparse.SpMV(at, h, semiring.PlusTimes)
		normalize(a)
		nextH := sparse.SpMV(adj, a, semiring.PlusTimes)
		normalize(nextH)
		delta := 0.0
		for i := range h {
			delta += math.Abs(nextH[i] - h[i])
		}
		h = nextH
		if delta < tol {
			return HITSResult{Hubs: h, Authorities: a, Iterations: it, Converged: true}
		}
	}
	return HITSResult{Hubs: h, Authorities: a, Iterations: maxIter, Converged: false}
}

// LocalClusteringCoefficient returns, per vertex, the fraction of its
// neighbour pairs that are themselves connected: 2·tri(v) / (d(v)(d(v)−1)).
// tri(v) comes from the diagonal of A³ computed sparsely as
// Σ_j (A ∘ A²)(v, j) / 2.
func LocalClusteringCoefficient(adj *sparse.Matrix) []float64 {
	a2 := sparse.SpGEMM(adj, adj, semiring.PlusTimes)
	wedgeHits := sparse.EWiseMult(adj, a2, semiring.PlusTimes)
	triTwice := sparse.ReduceRows(wedgeHits, semiring.PlusMonoid) // 2·tri(v)
	deg := sparse.ReduceRows(adj, semiring.PlusMonoid)
	out := make([]float64, adj.Rows())
	for v := range out {
		d := deg[v]
		if d >= 2 {
			out[v] = triTwice[v] / (d * (d - 1))
		}
	}
	return out
}

// GlobalClusteringCoefficient is 3·triangles / open+closed wedges.
func GlobalClusteringCoefficient(adj *sparse.Matrix) float64 {
	tri := TriangleCount(adj)
	deg := sparse.ReduceRows(adj, semiring.PlusMonoid)
	wedges := 0.0
	for _, d := range deg {
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * tri / wedges
}
