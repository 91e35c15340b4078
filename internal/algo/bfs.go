// Package algo implements the paper's graph algorithms as sparse linear
// algebra over the GraphBLAS kernels: one or more algorithms for every
// class in Table I (exploration & traversal, subgraph detection,
// centrality, similarity, community detection, prediction, shortest
// path), including the paper's Algorithm 1 (k-truss), Algorithm 2
// (Jaccard), and Algorithms 3–5 (NMF with an iterative matrix inverse).
package algo

import (
	"fmt"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// BFSLevels runs breadth-first search from source over the adjacency
// matrix, returning each vertex's level (hop distance); unreachable
// vertices get −1. The frontier expands with SpMSpV over the boolean
// semiring — Table I's Exploration & Traversal class as linear algebra.
func BFSLevels(adj *sparse.Matrix, source int) []int {
	n := adj.Rows()
	if adj.Cols() != n {
		panic("algo: BFS needs a square adjacency matrix")
	}
	if source < 0 || source >= n {
		panic(fmt.Sprintf("algo: BFS source %d out of range", source))
	}
	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[source] = 0
	frontier := sparse.NewVector(n, []int{source}, []float64{1}, semiring.OrAnd)
	for depth := 1; frontier.NNZ() > 0; depth++ {
		next := sparse.SpMSpV(adj, frontier, semiring.OrAnd)
		// Mask out visited vertices, keeping the frontier sparse.
		var idx []int
		var val []float64
		for k, j := range next.Idx {
			if levels[j] == -1 {
				levels[j] = depth
				idx = append(idx, j)
				val = append(val, next.Val[k])
			}
		}
		frontier = &sparse.Vector{N: n, Idx: idx, Val: val}
	}
	return levels
}

// ConnectedComponents labels each vertex with the smallest vertex id in
// its component, by iterating label = min(label, A·label) under the
// min.first semiring until fixpoint.
func ConnectedComponents(adj *sparse.Matrix) []int {
	n := adj.Rows()
	labels := make([]float64, n)
	for i := range labels {
		labels[i] = float64(i)
	}
	ring := semiring.Semiring{
		Name: "min.second",
		Add:  semiring.MinMonoid.Op,
		Mul:  func(_, b float64) float64 { return b },
		Zero: semiring.MinMonoid.Identity,
		One:  0,
	}
	for {
		next := sparse.SpMV(adj, labels, ring)
		changed := false
		for i := range next {
			if next[i] < labels[i] {
				labels[i] = next[i]
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	out := make([]int, n)
	for i, l := range labels {
		out[i] = int(l)
	}
	return out
}
