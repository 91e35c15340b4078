package algo

import (
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// This file implements the paper's Algorithm 1: k-truss subgraph
// computation on the unoriented incidence matrix, with the identity
// A = EᵀE − diag(EᵀE) and the incremental support update
// R ← R(xᶜ,:) − E[EₓᵀEₓ − diag(dₓ)] that avoids recomputing the full
// product after edge removal. (Table I: Subgraph Detection & Vertex
// Nomination.)

// KTrussEdge returns the incidence matrix of the k-truss of the graph
// whose unoriented incidence matrix is E: the maximal subgraph in which
// every edge is supported by at least k−2 triangles. The row set of the
// result is the subset of surviving edges (rows are renumbered densely);
// the column (vertex) space is preserved.
func KTrussEdge(E *sparse.Matrix, k int) *sparse.Matrix {
	if k < 3 {
		// Every graph is a 2-truss; nothing to remove.
		return E.Clone()
	}
	// d = sum(E) and A = EᵀE − diag(d). Because diag(EᵀE) = diag(d)
	// exactly (the diagonal of the Gram matrix is the degree vector),
	// the subtraction is just removing the diagonal.
	Et := sparse.Transpose(E)
	A := sparse.NoDiag(sparse.SpGEMM(Et, E, semiring.PlusTimes))
	// R = EA.
	R := sparse.SpGEMM(E, A, semiring.PlusTimes)
	s := supportFromR(R)
	x := sparse.Find(s, func(v float64) bool { return v < float64(k-2) })
	for len(x) > 0 && E.Rows() > 0 {
		xc := sparse.Complement(x, E.Rows())
		Ex := sparse.SpRefRows(E, x)
		E = sparse.SpRefRows(E, xc)
		R = sparse.SpRefRows(R, xc)
		// R = R − E[EₓᵀEₓ − diag(dₓ)]; as above, the bracket is the
		// off-diagonal part of the removed edges' Gram matrix.
		ExT := sparse.Transpose(Ex)
		update := sparse.NoDiag(sparse.SpGEMM(ExT, Ex, semiring.PlusTimes))
		R = sparse.EWiseAdd(R, sparse.Scale(sparse.SpGEMM(E, update, semiring.PlusTimes), -1), semiring.PlusTimes)
		s = supportFromR(R)
		x = sparse.Find(s, func(v float64) bool { return v < float64(k-2) })
	}
	return E
}

// supportFromR computes s = (R == 2)·1: the per-edge triangle support,
// from the overlap matrix R = EA.
func supportFromR(R *sparse.Matrix) []float64 {
	ind := sparse.Apply(R, semiring.EqualsIndicator(2))
	return sparse.ReduceRows(ind, semiring.PlusMonoid)
}

// KTrussAdj computes the k-truss from an adjacency matrix, returning the
// adjacency matrix of the truss. Internally it converts to an incidence
// matrix, runs Algorithm 1, and converts back via A = EᵀE − diag.
func KTrussAdj(adj *sparse.Matrix, k int) *sparse.Matrix {
	E := IncidenceFromAdjacency(adj)
	Ek := KTrussEdge(E, k)
	if Ek.Rows() == 0 {
		return sparse.New(adj.Rows(), adj.Cols())
	}
	return sparse.NoDiag(sparse.SpGEMM(sparse.Transpose(Ek), Ek, semiring.PlusTimes))
}

// IncidenceFromAdjacency builds the unoriented incidence matrix from a
// symmetric 0/1 adjacency matrix, one row per upper-triangular edge.
func IncidenceFromAdjacency(adj *sparse.Matrix) *sparse.Matrix {
	upper := sparse.Triu(adj, 1)
	var ts []sparse.Triple
	row := 0
	for _, t := range upper.Triples() {
		ts = append(ts, sparse.Triple{Row: row, Col: t.Row, Val: 1},
			sparse.Triple{Row: row, Col: t.Col, Val: 1})
		row++
	}
	return sparse.NewFromTriples(row, adj.Cols(), ts, semiring.PlusTimes)
}

// TriangleCount returns the number of triangles in the simple undirected
// graph with 0/1 adjacency matrix A, as trace(A³)/6 computed sparsely:
// Σ (A ⊗ A²) / 6.
func TriangleCount(adj *sparse.Matrix) float64 {
	a2 := sparse.SpGEMM(adj, adj, semiring.PlusTimes)
	hits := sparse.EWiseMult(adj, a2, semiring.PlusTimes)
	return sparse.Reduce(hits, semiring.PlusMonoid) / 6
}
