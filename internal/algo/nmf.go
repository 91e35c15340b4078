package algo

import (
	"fmt"
	"math"
	"sort"

	"graphulo/internal/gen"
	"graphulo/internal/sparse"
)

// This file implements the paper's community-detection pipeline
// (Table I: Community Detection):
//
//   - Algorithm 4: matrix inverse by Newton–Schulz iteration
//     X_{t+1} = X_t(2I − AX_t), seeded with X₁ = Aᵀ/(‖A‖row·‖A‖col),
//     expressible purely in GraphBLAS kernels.
//   - Algorithms 3/5: non-negative matrix factorisation A ≈ W·H by
//     alternating least squares, solving each step with the iterative
//     inverse and clamping negatives to zero.
//   - Topic extraction mirroring Fig. 3: top terms per topic and
//     document→topic assignment.

// InverseDense computes A⁻¹ for a small dense matrix with the paper's
// Algorithm 4. It returns the inverse, the iterations used, and whether
// the Frobenius-norm stopping test ‖X_{t+1} − X_t‖_F ≤ eps was met
// within maxIter.
func InverseDense(a *sparse.Dense, eps float64, maxIter int) (*sparse.Dense, int, bool) {
	if a.R != a.C {
		panic("algo: inverse of non-square matrix")
	}
	if eps <= 0 {
		eps = 1e-12
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	n := a.R
	// X₁ = Aᵀ / (‖A‖row · ‖A‖col); both norms are GraphBLAS Reduce+max.
	rowN := maxAbsRowSumDense(a)
	colN := maxAbsRowSumDense(a.T())
	x := a.T().ScaleDense(1 / (rowN * colN))
	twoI := sparse.NewDense(n, n)
	for i := 0; i < n; i++ {
		twoI.Set(i, i, 2)
	}
	for it := 1; it <= maxIter; it++ {
		// X_{t+1} = X_t (2I − A X_t)
		ax := a.MulDense(x)
		next := x.MulDense(twoI.SubDense(ax))
		if next.SubDense(x).Frobenius() <= eps {
			return next, it, true
		}
		x = next
	}
	return x, maxIter, false
}

// NMFResult carries the factorisation and its convergence record.
type NMFResult struct {
	W          *sparse.Dense // m×k basis (documents × topics)
	H          *sparse.Dense // k×n weights (topics × terms)
	Iterations int
	Residual   float64 // final ‖A − WH‖_F
	Converged  bool
}

// NMFConfig parameterises the factorisation.
type NMFConfig struct {
	Topics  int     // k
	Eps     float64 // stop when ‖A−WH‖_F change < Eps (default 1e-3 relative)
	MaxIter int     // default 100
	Seed    uint64  // W initialisation
}

// NMF factorises the sparse non-negative matrix A (m×n) into W (m×k) and
// H (k×n) with the paper's Algorithm 5: alternating least squares where
// the normal-equation solves use the Algorithm 4 iterative inverse of
// the small k×k Gram matrices, and negatives are clamped to zero after
// each solve.
func NMF(a *sparse.Matrix, cfg NMFConfig) NMFResult {
	if cfg.Topics <= 0 {
		panic("algo: NMF needs Topics >= 1")
	}
	k := cfg.Topics
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 1e-4
	}
	m := a.Rows()
	rng := gen.NewRand(cfg.Seed + 1)
	// W = random m×k matrix (paper initialisation).
	W := sparse.NewDense(m, k)
	for i := range W.Data {
		W.Data[i] = 0.1 + 0.9*rng.Float64()
	}
	var H *sparse.Dense
	prevResidual := -1.0
	normA := sparse.FrobeniusNorm(a)
	for it := 1; it <= cfg.MaxIter; it++ {
		// Solve H = (WᵀW)⁻¹ Wᵀ A, clamp at 0.
		wtw := W.T().MulDense(W)
		wtwInv, _, ok := InverseDense(ridge(wtw), 1e-12, 300)
		if !ok {
			wtwInv, _ = sparse.GaussJordanInverse(ridge(wtw))
		}
		wta := denseTMulSparse(W, a) // Wᵀ·A, k×n
		H = wtwInv.MulDense(wta).ClampNonNegative()

		// Solve Wᵀ = (HHᵀ)⁻¹ H Aᵀ, i.e. W = A Hᵀ (HHᵀ)⁻ᵀ, clamp at 0.
		hht := H.MulDense(H.T())
		hhtInv, _, ok := InverseDense(ridge(hht), 1e-12, 300)
		if !ok {
			hhtInv, _ = sparse.GaussJordanInverse(ridge(hht))
		}
		aht := sparse.MulSparseDense(a, H.T()) // m×k
		W = aht.MulDense(hhtInv.T()).ClampNonNegative()

		// Convergence: ‖A − WH‖_F via the sparse-aware expansion
		// ‖A‖² − 2⟨A, WH⟩ + ‖WH‖² to avoid materialising WH densely.
		res := residualFrobenius(a, W, H, normA)
		if prevResidual >= 0 && math.Abs(prevResidual-res) < cfg.Eps*normA {
			return NMFResult{W: W, H: H, Iterations: it, Residual: res, Converged: true}
		}
		prevResidual = res
	}
	return NMFResult{W: W, H: H, Iterations: cfg.MaxIter, Residual: prevResidual, Converged: false}
}

// ridge adds a small diagonal regulariser so rank-deficient Gram
// matrices stay invertible (standard ALS practice; without it a dead
// topic would make WᵀW singular).
func ridge(g *sparse.Dense) *sparse.Dense {
	out := g.Clone()
	for i := 0; i < out.R; i++ {
		out.Data[i*out.C+i] += 1e-9
	}
	return out
}

// denseTMulSparse computes Wᵀ·A (k×n) without forming Wᵀ explicitly.
func denseTMulSparse(w *sparse.Dense, a *sparse.Matrix) *sparse.Dense {
	k := w.C
	out := sparse.NewDense(k, a.Cols())
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.Row(i)
		wrow := w.Data[i*k : (i+1)*k]
		for t, j := range cols {
			av := vals[t]
			for l := 0; l < k; l++ {
				out.Data[l*a.Cols()+j] += wrow[l] * av
			}
		}
	}
	return out
}

// residualFrobenius returns ‖A − WH‖_F using
// ‖A‖² − 2 Σ_{A(i,j)≠0} A(i,j)·(WH)(i,j) + ‖WH‖²,
// where ‖WH‖² = trace((WᵀW)(HHᵀ)) is k×k work.
func residualFrobenius(a *sparse.Matrix, w, h *sparse.Dense, normA float64) float64 {
	k := w.C
	cross := 0.0
	for i := 0; i < a.Rows(); i++ {
		cols, vals := a.Row(i)
		wrow := w.Data[i*k : (i+1)*k]
		for t, j := range cols {
			wh := 0.0
			for l := 0; l < k; l++ {
				wh += wrow[l] * h.Data[l*h.C+j]
			}
			cross += vals[t] * wh
		}
	}
	wtw := w.T().MulDense(w)
	hht := h.MulDense(h.T())
	whNormSq := 0.0
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			whNormSq += wtw.At(i, j) * hht.At(j, i)
		}
	}
	v := normA*normA - 2*cross + whNormSq
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Topic summarisation (Fig. 3): top terms per topic and per-document
// assignments.

// TopTerms returns the topN column indices with the largest weight in
// each topic (row of H).
func TopTerms(h *sparse.Dense, topN int) [][]int {
	out := make([][]int, h.R)
	for t := 0; t < h.R; t++ {
		type tw struct {
			j int
			w float64
		}
		row := make([]tw, h.C)
		for j := 0; j < h.C; j++ {
			row[j] = tw{j, h.At(t, j)}
		}
		sort.Slice(row, func(a, b int) bool {
			if row[a].w != row[b].w {
				return row[a].w > row[b].w
			}
			return row[a].j < row[b].j
		})
		n := topN
		if n > len(row) {
			n = len(row)
		}
		ids := make([]int, n)
		for i := 0; i < n; i++ {
			ids[i] = row[i].j
		}
		out[t] = ids
	}
	return out
}

// AssignTopics returns each document's dominant topic: argmax over the
// rows of W.
func AssignTopics(w *sparse.Dense) []int {
	out := make([]int, w.R)
	for i := 0; i < w.R; i++ {
		best, bestW := 0, w.At(i, 0)
		for t := 1; t < w.C; t++ {
			if v := w.At(i, t); v > bestW {
				best, bestW = t, v
			}
		}
		out[i] = best
	}
	return out
}

// TopicPurity measures how well assignments recover a planted ground
// truth: for each recovered topic, the fraction of its documents sharing
// the topic's majority label, averaged over documents. 1.0 is perfect
// recovery (up to label permutation).
func TopicPurity(assigned, truth []int, k int) float64 {
	if len(assigned) != len(truth) {
		panic(fmt.Sprintf("algo: purity length mismatch %d vs %d", len(assigned), len(truth)))
	}
	if len(assigned) == 0 {
		return 1
	}
	counts := make(map[[2]int]int)
	for i := range assigned {
		counts[[2]int{assigned[i], truth[i]}]++
	}
	correct := 0
	for a := 0; a < k; a++ {
		best := 0
		for tr := 0; tr < k; tr++ {
			if c := counts[[2]int{a, tr}]; c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(assigned))
}
