// Package gen generates the workloads the experiments run on: power-law
// RMAT/Kronecker graphs (the Graph500 generator NoSQL graph benchmarks
// use), Erdős–Rényi graphs, structured graphs (path, cycle, star,
// complete, barbell), planted-clique instances, the paper's Fig. 1
// example graph, and the synthetic tweet corpus standing in for the
// Fig. 3 Twitter dataset.
//
// All generators are deterministic in their seed, using SplitMix64 so
// streams are stable across platforms and Go versions.
package gen

import (
	"fmt"
	"math"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// Rand is a SplitMix64 PRNG: tiny, fast, and stable across releases
// (unlike math/rand's unspecified stream for a given seed).
type Rand struct{ state uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next raw 64-bit value.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("gen: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Edge is an undirected or directed edge between integer vertex ids.
type Edge struct{ U, V int }

// Graph is an edge-list graph with a fixed vertex count.
type Graph struct {
	N     int
	Edges []Edge
}

// RMATConfig parameterises the recursive-matrix generator.
type RMATConfig struct {
	Scale      int     // 2^Scale vertices
	EdgeFactor int     // edges = EdgeFactor * 2^Scale
	A, B, C    float64 // quadrant probabilities; D = 1−A−B−C
	Seed       uint64
}

// Graph500 returns the standard Graph500 RMAT parameters
// (A=0.57, B=0.19, C=0.19) at the given scale.
func Graph500(scale int, seed uint64) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, Seed: seed}
}

// RMAT generates a power-law graph by recursive quadrant descent.
// Self-loops are dropped; duplicate edges are kept (they become weights
// under a +-combine), matching Graph500 semantics.
func RMAT(cfg RMATConfig) Graph {
	if cfg.Scale < 1 || cfg.Scale > 30 {
		panic(fmt.Sprintf("gen: RMAT scale %d out of range", cfg.Scale))
	}
	if cfg.EdgeFactor <= 0 {
		cfg.EdgeFactor = 16
	}
	d := 1 - cfg.A - cfg.B - cfg.C
	if cfg.A <= 0 || cfg.B < 0 || cfg.C < 0 || d < 0 {
		panic("gen: RMAT probabilities invalid")
	}
	n := 1 << cfg.Scale
	m := cfg.EdgeFactor * n
	rng := NewRand(cfg.Seed)
	g := Graph{N: n, Edges: make([]Edge, 0, m)}
	for len(g.Edges) < m {
		u, v := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			p := rng.Float64()
			switch {
			case p < cfg.A: // top-left
			case p < cfg.A+cfg.B: // top-right
				v |= 1 << bit
			case p < cfg.A+cfg.B+cfg.C: // bottom-left
				u |= 1 << bit
			default: // bottom-right
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue
		}
		g.Edges = append(g.Edges, Edge{u, v})
	}
	return g
}

// ErdosRenyi generates a simple undirected graph with n vertices and m
// distinct edges chosen uniformly.
func ErdosRenyi(n, m int, seed uint64) Graph {
	maxM := n * (n - 1) / 2
	if m > maxM {
		panic(fmt.Sprintf("gen: ErdosRenyi m=%d exceeds max %d", m, maxM))
	}
	rng := NewRand(seed)
	seen := make(map[[2]int]bool, m)
	g := Graph{N: n, Edges: make([]Edge, 0, m)}
	for len(g.Edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		g.Edges = append(g.Edges, Edge{u, v})
	}
	return g
}

// Path returns the path graph 0−1−…−(n−1).
func Path(n int) Graph {
	g := Graph{N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, Edge{i, i + 1})
	}
	return g
}

// Cycle returns the n-cycle.
func Cycle(n int) Graph {
	g := Path(n)
	if n > 2 {
		g.Edges = append(g.Edges, Edge{n - 1, 0})
	}
	return g
}

// Star returns the star with center 0 and n−1 leaves.
func Star(n int) Graph {
	g := Graph{N: n}
	for i := 1; i < n; i++ {
		g.Edges = append(g.Edges, Edge{0, i})
	}
	return g
}

// Complete returns K_n.
func Complete(n int) Graph {
	g := Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.Edges = append(g.Edges, Edge{u, v})
		}
	}
	return g
}

// Barbell returns two K_k cliques joined by a path of length bridge.
func Barbell(k, bridge int) Graph {
	left := Complete(k)
	g := Graph{N: 2*k + bridge}
	g.Edges = append(g.Edges, left.Edges...)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			g.Edges = append(g.Edges, Edge{k + bridge + u, k + bridge + v})
		}
	}
	prev := k - 1
	for i := 0; i < bridge; i++ {
		g.Edges = append(g.Edges, Edge{prev, k + i})
		prev = k + i
	}
	g.Edges = append(g.Edges, Edge{prev, k + bridge})
	return g
}

// PlantedClique embeds a k-clique into an Erdős–Rényi G(n, p) graph and
// returns the graph plus the clique's vertex ids — the paper's §III.B
// subgraph-detection workload.
func PlantedClique(n int, p float64, k int, seed uint64) (Graph, []int) {
	rng := NewRand(seed)
	g := Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.Edges = append(g.Edges, Edge{u, v})
			}
		}
	}
	// Plant the clique on k random distinct vertices.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	clique := perm[:k]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.Edges = append(g.Edges, Edge{clique[i], clique[j]})
		}
	}
	return g, append([]int(nil), clique...)
}

// PaperGraph returns the 5-vertex, 6-edge graph of the paper's Fig. 1,
// with edges numbered as in its incidence matrix E:
// e1=(v1,v2), e2=(v2,v3), e3=(v1,v4), e4=(v3,v4), e5=(v1,v3), e6=(v2,v5).
// Vertex ids are 0-based.
func PaperGraph() Graph {
	return Graph{N: 5, Edges: []Edge{
		{0, 1}, {1, 2}, {0, 3}, {2, 3}, {0, 2}, {1, 4},
	}}
}

// Adjacency builds the symmetric unweighted adjacency matrix of g,
// combining duplicate edges by summation (multi-edges become weights).
func Adjacency(g Graph) *sparse.Matrix {
	ts := make([]sparse.Triple, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		ts = append(ts, sparse.Triple{Row: e.U, Col: e.V, Val: 1},
			sparse.Triple{Row: e.V, Col: e.U, Val: 1})
	}
	return sparse.NewFromTriples(g.N, g.N, ts, semiring.PlusTimes)
}

// AdjacencyPattern builds the 0/1 adjacency matrix, collapsing
// multi-edges.
func AdjacencyPattern(g Graph) *sparse.Matrix {
	return sparse.Apply(Adjacency(g), semiring.OneIfNonzero)
}

// AdjacencyDirected builds the directed adjacency matrix (U → V only).
func AdjacencyDirected(g Graph) *sparse.Matrix {
	ts := make([]sparse.Triple, 0, len(g.Edges))
	for _, e := range g.Edges {
		ts = append(ts, sparse.Triple{Row: e.U, Col: e.V, Val: 1})
	}
	return sparse.NewFromTriples(g.N, g.N, ts, semiring.PlusTimes)
}

// Incidence builds the unoriented incidence matrix: rows are edges,
// columns are vertices, E(i, u) = E(i, v) = 1 for edge i = (u, v). This
// is the representation the paper's Algorithm 1 consumes.
func Incidence(g Graph) *sparse.Matrix {
	ts := make([]sparse.Triple, 0, 2*len(g.Edges))
	for i, e := range g.Edges {
		ts = append(ts, sparse.Triple{Row: i, Col: e.U, Val: 1},
			sparse.Triple{Row: i, Col: e.V, Val: 1})
	}
	return sparse.NewFromTriples(len(g.Edges), g.N, ts, semiring.PlusTimes)
}

// Dedup returns g with duplicate and reversed-duplicate edges removed
// (simple graph).
func Dedup(g Graph) Graph {
	seen := make(map[[2]int]bool, len(g.Edges))
	out := Graph{N: g.N}
	for _, e := range g.Edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if u == v || seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		out.Edges = append(out.Edges, Edge{u, v})
	}
	return out
}

// WeightedEdges assigns deterministic positive weights in [1, maxW) to
// the edges, for shortest-path workloads.
func WeightedEdges(g Graph, maxW float64, seed uint64) []sparse.Triple {
	rng := NewRand(seed)
	ts := make([]sparse.Triple, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		w := 1 + rng.Float64()*(maxW-1)
		w = math.Round(w*100) / 100
		ts = append(ts, sparse.Triple{Row: e.U, Col: e.V, Val: w},
			sparse.Triple{Row: e.V, Col: e.U, Val: w})
	}
	return ts
}
