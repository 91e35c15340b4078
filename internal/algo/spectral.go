package algo

import (
	"math"

	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// This file covers the remaining named members of the paper's Table I:
// SVD under Community Detection ("Singular Value Decomposition") and
// vertex nomination under Subgraph Detection ("ranking vertices based
// on how likely they are to be associated with a subset of 'cue'
// vertices" [10]). Both reduce to the same iterated-SpMV machinery as
// §III.A.

// SVDResult holds a truncated singular value decomposition A ≈ UΣVᵀ.
type SVDResult struct {
	U          *sparse.Dense // m×k left singular vectors (columns)
	S          []float64     // k singular values, descending
	V          *sparse.Dense // n×k right singular vectors (columns)
	Iterations int
}

// TruncatedSVD computes the top-k singular triplets of a sparse matrix
// by power iteration with deflation: v ← normalised AᵀAv, σ = ‖Av‖,
// u = Av/σ, then the found component is projected out of subsequent
// iterations. Every product is an SpMV (or its transpose), so the
// computation stays within the GraphBLAS kernel set.
func TruncatedSVD(a *sparse.Matrix, k int, tol float64, maxIter int) SVDResult {
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 500
	}
	m, n := a.Rows(), a.Cols()
	if k > n {
		k = n
	}
	if k > m {
		k = m
	}
	at := sparse.Transpose(a)
	U := sparse.NewDense(m, k)
	V := sparse.NewDense(n, k)
	S := make([]float64, k)
	totalIters := 0

	// prevV[c] holds already-found right singular vectors for deflation.
	var found [][]float64
	rng := gen.NewRand(12345)
	for c := 0; c < k; c++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64() - 0.5
		}
		deflate(v, found)
		normalize(v)
		exhausted := false
		for it := 0; it < maxIter; it++ {
			totalIters++
			// w = Av; v' = Aᵀw.
			w := sparse.SpMV(a, v, semiring.PlusTimes)
			next := sparse.SpMV(at, w, semiring.PlusTimes)
			preNN := norm(next)
			deflate(next, found)
			nn := norm(next)
			// If deflation annihilates the iterate (relative to its
			// pre-deflation size), A has numerical rank < c+1: the
			// surviving "direction" is rounding noise and must not be
			// re-normalised into a fake singular vector.
			if nn == 0 || nn <= 1e-9*preNN || preNN == 0 {
				exhausted = true
				break
			}
			for i := range next {
				next[i] /= nn
			}
			delta := 0.0
			for i := range next {
				delta += math.Abs(math.Abs(next[i]) - math.Abs(v[i]))
			}
			v = next
			if delta < tol {
				break
			}
		}
		if exhausted {
			// Remaining singular values are 0; leave U/V columns zero.
			break
		}
		// u = Av/σ.
		u := sparse.SpMV(a, v, semiring.PlusTimes)
		un := norm(u)
		if un > 0 {
			for i := range u {
				u[i] /= un
			}
		}
		S[c] = un
		for i := 0; i < m; i++ {
			U.Set(i, c, u[i])
		}
		for i := 0; i < n; i++ {
			V.Set(i, c, v[i])
		}
		found = append(found, append([]float64(nil), v...))
	}
	return SVDResult{U: U, S: S, V: V, Iterations: totalIters}
}

// deflate removes the components of x along each unit vector in basis.
func deflate(x []float64, basis [][]float64) {
	for _, b := range basis {
		d := dot(x, b)
		for i := range x {
			x[i] -= d * b[i]
		}
	}
}

// VertexNomination ranks vertices by affinity to a set of cue vertices
// using personalised PageRank: the random walk teleports back to the
// cues instead of the uniform distribution, so stationary mass
// concentrates around them. Cue vertices themselves are ranked first by
// construction; callers typically inspect the top non-cue vertices.
func VertexNomination(adj *sparse.Matrix, cues []int, alpha float64, maxIter int) []float64 {
	n := adj.Rows()
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.15
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	restart := make([]float64, n)
	for _, c := range cues {
		restart[c] = 1 / float64(len(cues))
	}
	outDeg := sparse.ReduceRows(adj, semiring.PlusMonoid)
	invDeg := make([]float64, n)
	for i, d := range outDeg {
		if d != 0 {
			invDeg[i] = 1 / d
		}
	}
	mt := sparse.Transpose(sparse.SpGEMM(sparse.Diag(invDeg), adj, semiring.PlusTimes))
	x := append([]float64(nil), restart...)
	for it := 0; it < maxIter; it++ {
		walked := sparse.SpMV(mt, x, semiring.PlusTimes)
		dangling := 0.0
		for i := range x {
			if outDeg[i] == 0 {
				dangling += x[i]
			}
		}
		delta := 0.0
		next := make([]float64, n)
		for i := range next {
			next[i] = (alpha+(1-alpha)*dangling)*restart[i] + (1-alpha)*walked[i]
			delta += math.Abs(next[i] - x[i])
		}
		x = next
		if delta < 1e-12 {
			break
		}
	}
	return x
}
