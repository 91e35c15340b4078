package algo

import (
	"math"
	"testing"

	"graphulo/internal/gen"
)

func TestClosenessPath(t *testing.T) {
	// Path 0-1-2: centre has distances {1,1}, ends {1,2}.
	adj := gen.AdjacencyPattern(gen.Path(3))
	c := ClosenessCentrality(adj)
	if !(c[1] > c[0] && c[1] > c[2]) {
		t.Fatalf("centre should dominate: %v", c)
	}
	// Exact value for the centre: reach=2, n-1=2, sum=2 → 1·(2/2)=1.
	if math.Abs(c[1]-1) > 1e-12 {
		t.Fatalf("centre closeness = %v, want 1", c[1])
	}
	// Ends: (2/2)·(2/3) = 2/3.
	if math.Abs(c[0]-2.0/3) > 1e-12 {
		t.Fatalf("end closeness = %v, want 2/3", c[0])
	}
}

func TestClosenessDisconnected(t *testing.T) {
	g := gen.Graph{N: 4, Edges: []gen.Edge{{U: 0, V: 1}}}
	c := ClosenessCentrality(gen.AdjacencyPattern(g))
	// Vertices 2,3 isolated: closeness 0; 0,1 reach only each other.
	if c[2] != 0 || c[3] != 0 {
		t.Fatalf("isolated vertices should score 0: %v", c)
	}
	// 0 reaches 1 of 3 others at distance 1: (1/3)·(1/1) = 1/3.
	if math.Abs(c[0]-1.0/3) > 1e-12 {
		t.Fatalf("c[0] = %v, want 1/3", c[0])
	}
}

func TestHarmonicCentrality(t *testing.T) {
	adj := gen.AdjacencyPattern(gen.Path(3))
	h := HarmonicCentrality(adj)
	// Ends: 1 + 1/2 = 1.5; centre: 1 + 1 = 2.
	if math.Abs(h[0]-1.5) > 1e-12 || math.Abs(h[1]-2) > 1e-12 {
		t.Fatalf("harmonic = %v", h)
	}
}

func TestHITSStar(t *testing.T) {
	// Undirected star: hub vertex 0 dominates both scores.
	adj := gen.AdjacencyPattern(gen.Star(6))
	res := HITS(adj, 1e-12, 2000)
	if !res.Converged {
		t.Fatalf("HITS did not converge")
	}
	for v := 1; v < 6; v++ {
		if res.Hubs[v] >= res.Hubs[0] || res.Authorities[v] >= res.Authorities[0] {
			t.Fatalf("hub should dominate: hubs=%v auths=%v", res.Hubs, res.Authorities)
		}
	}
}

func TestHITSDirectedBipartite(t *testing.T) {
	// 0,1 → 2,3: sources are pure hubs, sinks pure authorities.
	g := gen.Graph{N: 4, Edges: []gen.Edge{
		{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3},
	}}
	adj := gen.AdjacencyDirected(g)
	res := HITS(adj, 1e-12, 2000)
	if res.Hubs[2] > 1e-9 || res.Hubs[3] > 1e-9 {
		t.Fatalf("sinks should have no hub score: %v", res.Hubs)
	}
	if res.Authorities[0] > 1e-9 || res.Authorities[1] > 1e-9 {
		t.Fatalf("sources should have no authority score: %v", res.Authorities)
	}
	if math.Abs(res.Hubs[0]-res.Hubs[1]) > 1e-9 {
		t.Fatalf("symmetric hubs differ: %v", res.Hubs)
	}
}

func TestLocalClusteringCoefficient(t *testing.T) {
	// K4: every vertex's neighbours are fully connected → 1.
	adj := gen.AdjacencyPattern(gen.Complete(4))
	for v, c := range LocalClusteringCoefficient(adj) {
		if math.Abs(c-1) > 1e-12 {
			t.Fatalf("K4 clustering[%d] = %v, want 1", v, c)
		}
	}
	// Star: hub's neighbours are never connected → 0; leaves have
	// degree 1 → 0 by convention.
	star := gen.AdjacencyPattern(gen.Star(5))
	for v, c := range LocalClusteringCoefficient(star) {
		if c != 0 {
			t.Fatalf("star clustering[%d] = %v, want 0", v, c)
		}
	}
	// Paper graph: v4 (idx 3) has neighbours {v1, v3} which are
	// connected → coefficient 1. v1 (idx 0) has neighbours {v2,v3,v4},
	// with 2 of 3 pairs connected → 2/3.
	pg := gen.AdjacencyPattern(gen.PaperGraph())
	cc := LocalClusteringCoefficient(pg)
	if math.Abs(cc[3]-1) > 1e-12 {
		t.Fatalf("paper graph cc[v4] = %v, want 1", cc[3])
	}
	if math.Abs(cc[0]-2.0/3) > 1e-12 {
		t.Fatalf("paper graph cc[v1] = %v, want 2/3", cc[0])
	}
}

func TestGlobalClusteringCoefficient(t *testing.T) {
	if got := GlobalClusteringCoefficient(gen.AdjacencyPattern(gen.Complete(5))); math.Abs(got-1) > 1e-12 {
		t.Fatalf("K5 global clustering = %v, want 1", got)
	}
	if got := GlobalClusteringCoefficient(gen.AdjacencyPattern(gen.Star(6))); got != 0 {
		t.Fatalf("star global clustering = %v, want 0", got)
	}
	if got := GlobalClusteringCoefficient(gen.AdjacencyPattern(gen.Path(5))); got != 0 {
		t.Fatalf("path global clustering = %v, want 0", got)
	}
}
