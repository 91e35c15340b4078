package algo

import (
	"math"
	"testing"

	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

func TestInverseDenseMatchesGaussJordan(t *testing.T) {
	rng := gen.NewRand(31)
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(6)
		m := sparse.NewDense(n, n)
		for i := 0; i < n; i++ {
			row := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := rng.Float64() - 0.5
					m.Set(i, j, v)
					row += math.Abs(v)
				}
			}
			m.Set(i, i, row+1+rng.Float64())
		}
		inv, iters, ok := InverseDense(m, 1e-13, 500)
		if !ok {
			t.Fatalf("trial %d: Newton–Schulz did not converge", trial)
		}
		if iters <= 0 {
			t.Fatalf("bad iteration count")
		}
		oracle, okGJ := sparse.GaussJordanInverse(m)
		if !okGJ {
			t.Fatalf("oracle failed")
		}
		for i := range inv.Data {
			if math.Abs(inv.Data[i]-oracle.Data[i]) > 1e-8 {
				t.Fatalf("trial %d: inverse differs at %d: %v vs %v", trial, i, inv.Data[i], oracle.Data[i])
			}
		}
	}
}

func TestInverseIdentityProperty(t *testing.T) {
	m := sparse.DenseFromRows([][]float64{
		{4, 1, 0},
		{1, 5, 2},
		{0, 2, 6},
	})
	inv, _, ok := InverseDense(m, 1e-14, 500)
	if !ok {
		t.Fatalf("no convergence")
	}
	prod := m.MulDense(inv)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-10 {
				t.Fatalf("M·M⁻¹(%d,%d) = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestNMFReconstructsLowRankMatrix(t *testing.T) {
	// A = W₀H₀ with k=2 non-negative factors must be recoverable to a
	// small residual.
	w0 := sparse.DenseFromRows([][]float64{
		{1, 0}, {2, 0}, {0, 1}, {0, 3}, {1, 1},
	})
	h0 := sparse.DenseFromRows([][]float64{
		{1, 0, 2, 0},
		{0, 1, 0, 2},
	})
	a := w0.MulDense(h0).ToSparse()
	res := NMF(a, NMFConfig{Topics: 2, MaxIter: 500, Eps: 1e-9, Seed: 4})
	if res.Residual > 0.05*sparse.FrobeniusNorm(a) {
		t.Fatalf("NMF residual too high: %v (‖A‖=%v, %d iters)",
			res.Residual, sparse.FrobeniusNorm(a), res.Iterations)
	}
	// Factors stay non-negative.
	for _, v := range res.W.Data {
		if v < 0 {
			t.Fatalf("negative W entry %v", v)
		}
	}
	for _, v := range res.H.Data {
		if v < 0 {
			t.Fatalf("negative H entry %v", v)
		}
	}
}

// TestNMFTopicRecovery is the Fig. 3 experiment in miniature: plant five
// topic communities in a synthetic tweet corpus and verify NMF recovers
// them with high purity, assigning each topic's vocabulary to the right
// factor.
func TestNMFTopicRecovery(t *testing.T) {
	corpus := gen.NewTweetCorpus(gen.TweetCorpusConfig{NumTweets: 600, Seed: 11})
	m, docs, terms := corpus.A.Matrix()
	res := NMF(m, NMFConfig{Topics: corpus.NumTopics, MaxIter: 60, Eps: 1e-6, Seed: 1})
	assigned := AssignTopics(res.W)
	// Map doc labels back to planted truth.
	truth := make([]int, len(docs))
	for i, d := range docs {
		var id int
		for _, ch := range d[3:] {
			id = id*10 + int(ch-'0')
		}
		truth[i] = corpus.Topic[id]
	}
	purity := TopicPurity(assigned, truth, corpus.NumTopics)
	if purity < 0.9 {
		t.Fatalf("topic purity %.3f < 0.9 (Fig. 3 qualitative claim)", purity)
	}
	// Top terms of each recovered topic should come from one vocabulary.
	top := TopTerms(res.H, 5)
	for topic, ids := range top {
		votes := map[int]int{}
		for _, id := range ids {
			term := terms[id]
			for v, vocab := range gen.TopicVocabularies {
				for _, w := range vocab {
					if w == term {
						votes[v]++
					}
				}
			}
		}
		best := 0
		for _, c := range votes {
			if c > best {
				best = c
			}
		}
		if best < 3 {
			t.Fatalf("recovered topic %d has mixed top terms: %v", topic, votes)
		}
	}
}

func TestTopTermsOrdering(t *testing.T) {
	h := sparse.DenseFromRows([][]float64{
		{0.1, 0.9, 0.5},
		{0.7, 0.2, 0.3},
	})
	top := TopTerms(h, 2)
	if top[0][0] != 1 || top[0][1] != 2 {
		t.Fatalf("topic 0 top terms = %v", top[0])
	}
	if top[1][0] != 0 || top[1][1] != 2 {
		t.Fatalf("topic 1 top terms = %v", top[1])
	}
}

func TestAssignTopics(t *testing.T) {
	w := sparse.DenseFromRows([][]float64{
		{0.9, 0.1},
		{0.2, 0.8},
	})
	got := AssignTopics(w)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("assignments = %v", got)
	}
}

func TestTopicPurity(t *testing.T) {
	if p := TopicPurity([]int{0, 0, 1, 1}, []int{1, 1, 0, 0}, 2); p != 1 {
		t.Fatalf("permuted perfect assignment purity = %v, want 1", p)
	}
	if p := TopicPurity([]int{0, 0, 0, 0}, []int{0, 1, 0, 1}, 2); p != 0.5 {
		t.Fatalf("collapsed purity = %v, want 0.5", p)
	}
}

func TestNMFPanicsWithoutTopics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NMF(sparse.Eye(3), NMFConfig{})
}

// The NMF pipeline exercises exactly the GraphBLAS kernel set the paper
// names for Algorithm 5: SpRef/SpAsgn (factor slicing), SpGEMM (the Gram
// and data products), Scale, SpEWiseX (clamping), and Reduce (norms).
// This test runs one ALS step expressed through those kernels directly
// and checks it agrees with the Dense fast path.
func TestNMFStepViaSparseKernels(t *testing.T) {
	a := sparse.NewFromDense([][]float64{
		{1, 0, 2},
		{0, 3, 0},
		{2, 0, 1},
		{0, 1, 1},
	})
	// Fixed W.
	wDense := sparse.DenseFromRows([][]float64{
		{1, 0.5}, {0.2, 1}, {0.8, 0.1}, {0.3, 0.9},
	})
	w := wDense.ToSparse()
	// Kernel path: H = (WᵀW)⁻¹ Wᵀ A with every product a SpGEMM.
	wtw := sparse.SpGEMM(sparse.Transpose(w), w, semiring.PlusTimes)
	wtwInv, _, ok := Inverse(wtw, 1e-14, 500)
	if !ok {
		t.Fatalf("inverse did not converge")
	}
	hKernel := sparse.SpGEMM(wtwInv, sparse.SpGEMM(sparse.Transpose(w), a, semiring.PlusTimes), semiring.PlusTimes)
	// Dense fast path.
	wtwD := wDense.T().MulDense(wDense)
	invD, _, _ := InverseDense(wtwD, 1e-14, 500)
	hDense := invD.MulDense(denseTMulSparse(wDense, a))
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(hKernel.At(i, j)-hDense.At(i, j)) > 1e-8 {
				t.Fatalf("kernel vs dense H(%d,%d): %v vs %v", i, j, hKernel.At(i, j), hDense.At(i, j))
			}
		}
	}
}

// Inverse computes A⁻¹ for a sparse square matrix with Algorithm 4,
// returning it as a sparse matrix.
func Inverse(a *sparse.Matrix, eps float64, maxIter int) (*sparse.Matrix, int, bool) {
	inv, it, ok := InverseDense(sparse.ToDense(a), eps, maxIter)
	if inv == nil {
		return nil, it, ok
	}
	return inv.ToSparse(), it, ok
}
