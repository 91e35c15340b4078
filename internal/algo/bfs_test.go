package algo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphulo/internal/gen"
)

func TestBFSLevelsPath(t *testing.T) {
	adj := gen.AdjacencyPattern(gen.Path(6))
	levels := BFSLevels(adj, 0)
	for v, want := range []int{0, 1, 2, 3, 4, 5} {
		if levels[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, levels[v], want)
		}
	}
}

func TestBFSLevelsDisconnected(t *testing.T) {
	g := gen.Graph{N: 5, Edges: []gen.Edge{{U: 0, V: 1}, {U: 2, V: 3}}}
	levels := BFSLevels(gen.AdjacencyPattern(g), 0)
	if levels[1] != 1 || levels[2] != -1 || levels[3] != -1 || levels[4] != -1 {
		t.Fatalf("levels = %v", levels)
	}
}

func TestBFSLevelsPaperGraph(t *testing.T) {
	adj := gen.AdjacencyPattern(gen.PaperGraph())
	levels := BFSLevels(adj, 4) // v5 connects only to v2
	want := []int{2, 1, 2, 3, 0}
	for v := range want {
		if levels[v] != want[v] {
			t.Fatalf("levels = %v, want %v", levels, want)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g := gen.Graph{N: 7, Edges: []gen.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}}}
	cc := ConnectedComponents(gen.AdjacencyPattern(g))
	if cc[0] != cc[1] || cc[1] != cc[2] || cc[0] != 0 {
		t.Fatalf("component 0 wrong: %v", cc)
	}
	if cc[3] != cc[4] || cc[3] != 3 {
		t.Fatalf("component 1 wrong: %v", cc)
	}
	if cc[5] != cc[6] || cc[5] != 5 {
		t.Fatalf("component 2 wrong: %v", cc)
	}
	if cc[0] == cc[3] || cc[3] == cc[5] {
		t.Fatalf("components merged: %v", cc)
	}
}

// Property: BFS levels match a classical queue-based BFS.
func TestQuickBFSMatchesClassical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := gen.Dedup(gen.ErdosRenyi(n, m, uint64(seed)+100))
		adj := gen.AdjacencyPattern(g)
		src := rng.Intn(n)
		got := BFSLevels(adj, src)
		// Classical BFS.
		want := make([]int, n)
		for i := range want {
			want[i] = -1
		}
		want[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			cols, _ := adj.Row(v)
			for _, u := range cols {
				if want[u] == -1 {
					want[u] = want[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: connected components agree with BFS reachability.
func TestQuickComponentsMatchBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		m := rng.Intn(n + 5)
		g := gen.Dedup(gen.ErdosRenyi(n, min(m, n*(n-1)/2), uint64(seed)+200))
		adj := gen.AdjacencyPattern(g)
		cc := ConnectedComponents(adj)
		for u := 0; u < n; u++ {
			levels := BFSLevels(adj, u)
			for v := 0; v < n; v++ {
				reachable := levels[v] >= 0
				sameComp := cc[u] == cc[v]
				if reachable != sameComp {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
