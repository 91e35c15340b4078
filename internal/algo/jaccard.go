package algo

import (
	"sort"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// This file implements the paper's Algorithm 2: Jaccard coefficients via
// the triangular split A = L + U, computing only the upper triangle
//
//	J = U² + triu(UUᵀ) + triu(UᵀU),   J ← J − diag(J),
//	J(i,j) ← J(i,j) / (d(i) + d(j) − J(i,j)),   J ← J + Jᵀ,
//
// plus the dense A²AND ./ A²OR formulation it is compared against
// (Table I: Similarity).

// Jaccard returns the matrix of Jaccard indices of an unweighted,
// undirected, zero-diagonal adjacency matrix A, using the paper's
// triangular algorithm. The result is symmetric with zero diagonal.
func Jaccard(adj *sparse.Matrix) *sparse.Matrix {
	d := sparse.ReduceRows(adj, semiring.PlusMonoid)
	U := sparse.Triu(adj, 1)
	Ut := sparse.Transpose(U)
	U2 := sparse.SpGEMM(U, U, semiring.PlusTimes)
	X := sparse.SpGEMM(U, Ut, semiring.PlusTimes) // UUᵀ
	Y := sparse.SpGEMM(Ut, U, semiring.PlusTimes) // UᵀU
	J := sparse.EWiseAdd(U2, sparse.Triu(X, 0), semiring.PlusTimes)
	J = sparse.EWiseAdd(J, sparse.Triu(Y, 0), semiring.PlusTimes)
	J = sparse.NoDiag(J)
	// J(i,j) = J(i,j) / (d(i)+d(j)−J(i,j)) on stored entries.
	J = sparse.Select(J, func(i, j int, v float64) bool { return v != 0 })
	J = divideByUnion(J, d)
	return sparse.EWiseAdd(J, sparse.Transpose(J), semiring.PlusTimes)
}

// divideByUnion maps each stored J(i,j) = |N(i)∩N(j)| to the Jaccard
// quotient |N(i)∩N(j)| / (d(i)+d(j)−|N(i)∩N(j)|).
func divideByUnion(J *sparse.Matrix, d []float64) *sparse.Matrix {
	var ts []sparse.Triple
	for _, t := range J.Triples() {
		union := d[t.Row] + d[t.Col] - t.Val
		if union > 0 {
			ts = append(ts, sparse.Triple{Row: t.Row, Col: t.Col, Val: t.Val / union})
		}
	}
	return sparse.NewFromTriples(J.Rows(), J.Cols(), ts, semiring.PlusTimes)
}

// JaccardDense computes Jaccard indices with the direct formulation
// J = A²_AND ./ A²_OR the paper gives before optimising: the numerator
// counts common neighbours (AND-multiply), the denominator neighbourhood
// unions (OR as d(i)+d(j)−intersection). It serves as the reference and
// the §IV ablation baseline.
func JaccardDense(adj *sparse.Matrix) *sparse.Matrix {
	n := adj.Rows()
	d := sparse.ReduceRows(adj, semiring.PlusMonoid)
	// A²_AND: common-neighbour counts via plus.and on the 0/1 pattern.
	inter := sparse.SpGEMM(adj, adj, semiring.PlusAnd)
	var ts []sparse.Triple
	for _, t := range inter.Triples() {
		if t.Row == t.Col {
			continue
		}
		union := d[t.Row] + d[t.Col] - t.Val
		if union > 0 {
			ts = append(ts, sparse.Triple{Row: t.Row, Col: t.Col, Val: t.Val / union})
		}
	}
	return sparse.NewFromTriples(n, n, ts, semiring.PlusTimes)
}

// LinkPrediction scores non-adjacent vertex pairs by Jaccard similarity
// and returns the topK highest-scoring candidate links — the paper's
// §III.C motivation ("computing vertex similarity is important in
// applications such as link prediction"). (Table I: Prediction.)
type PredictedLink struct {
	U, V  int
	Score float64
}

// LinkPrediction returns the topK non-edges with the highest Jaccard
// coefficients.
func LinkPrediction(adj *sparse.Matrix, topK int) []PredictedLink {
	J := Jaccard(adj)
	var cands []PredictedLink
	for _, t := range sparse.Triu(J, 1).Triples() {
		if adj.At(t.Row, t.Col) == 0 && t.Val > 0 {
			cands = append(cands, PredictedLink{U: t.Row, V: t.Col, Score: t.Val})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		if cands[i].U != cands[j].U {
			return cands[i].U < cands[j].U
		}
		return cands[i].V < cands[j].V
	})
	if topK < len(cands) {
		cands = cands[:topK]
	}
	return cands
}
