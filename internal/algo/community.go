package algo

import (
	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// Community detection beyond NMF (Table I lists topic modeling, NMF,
// PCA, SVD as examples of the class): label propagation, the standard
// lightweight community detector, expressed as an iterated masked SpMV
// — each vertex adopts its neighbourhood's plurality label — plus the
// modularity quality score used to evaluate partitions.

// LabelPropagation partitions the graph by iterative plurality voting:
// every vertex adopts the most common label among its neighbours
// (ties broken toward the smallest label), until no label changes or
// maxRounds is hit. Returns the community label of each vertex. Updates
// are asynchronous: each round relabels vertices in place, in one
// visit order shuffled from seed, so a vertex votes on the labels its
// neighbours took earlier in the same round. Deterministic for a seed.
func LabelPropagation(adj *sparse.Matrix, maxRounds int, seed uint64) []int {
	n := adj.Rows()
	if maxRounds <= 0 {
		maxRounds = 100
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i
	}
	// Deterministic shuffled visit order decorrelates label ids from
	// vertex ids without sacrificing reproducibility.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	rng := gen.NewRand(seed + 1)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	counts := map[int]float64{}
	for round := 0; round < maxRounds; round++ {
		changed := false
		for _, v := range order {
			cols, vals := adj.Row(v)
			if len(cols) == 0 {
				continue
			}
			clear(counts)
			for i, u := range cols {
				counts[labels[u]] += vals[i]
			}
			best, bestCount := labels[v], counts[labels[v]]
			for l, c := range counts {
				if c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			if best != labels[v] {
				labels[v] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return labels
}

// Modularity scores a partition of an undirected graph: the fraction of
// edges inside communities minus the expectation under the degree-
// preserving null model. Range roughly [−1/2, 1); higher is better.
func Modularity(adj *sparse.Matrix, labels []int) float64 {
	deg := sparse.ReduceRows(adj, semiring.PlusMonoid)
	twoM := 0.0
	for _, d := range deg {
		twoM += d
	}
	if twoM == 0 {
		return 0
	}
	inside := 0.0
	for _, t := range adj.Triples() {
		if labels[t.Row] == labels[t.Col] {
			inside += t.Val
		}
	}
	// Σ_c (deg_c / 2m)².
	commDeg := map[int]float64{}
	for v, d := range deg {
		commDeg[labels[v]] += d
	}
	expected := 0.0
	for _, d := range commDeg {
		expected += (d / twoM) * (d / twoM)
	}
	return inside/twoM - expected
}

// CommunityCount returns the number of distinct labels.
func CommunityCount(labels []int) int {
	set := map[int]bool{}
	for _, l := range labels {
		set[l] = true
	}
	return len(set)
}
