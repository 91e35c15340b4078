package gen

import (
	"testing"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Fatalf("different seeds collided immediately")
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRMATProperties(t *testing.T) {
	g := RMAT(Graph500(8, 1))
	n := 1 << 8
	if g.N != n {
		t.Fatalf("N = %d", g.N)
	}
	if len(g.Edges) != 16*n {
		t.Fatalf("edges = %d, want %d", len(g.Edges), 16*n)
	}
	for _, e := range g.Edges {
		if e.U == e.V {
			t.Fatalf("self loop survived")
		}
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			t.Fatalf("vertex out of range: %v", e)
		}
	}
	// Determinism.
	g2 := RMAT(Graph500(8, 1))
	if len(g2.Edges) != len(g.Edges) || g2.Edges[0] != g.Edges[0] || g2.Edges[100] != g.Edges[100] {
		t.Fatalf("RMAT not deterministic")
	}
	// Power law sanity: max degree far above mean degree.
	adj := Adjacency(g)
	deg := sparse.ReduceRows(adj, semiring.PlusMonoid)
	mean, maxd := 0.0, 0.0
	for _, d := range deg {
		mean += d
		if d > maxd {
			maxd = d
		}
	}
	mean /= float64(len(deg))
	if maxd < 4*mean {
		t.Fatalf("degree distribution not skewed: max %v mean %v", maxd, mean)
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(50, 100, 2)
	if g.N != 50 || len(g.Edges) != 100 {
		t.Fatalf("wrong size")
	}
	seen := map[[2]int]bool{}
	for _, e := range g.Edges {
		if e.U == e.V {
			t.Fatalf("self loop")
		}
		k := [2]int{e.U, e.V}
		if seen[k] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[k] = true
	}
}

func TestStructuredGraphs(t *testing.T) {
	if g := Path(5); len(g.Edges) != 4 {
		t.Fatalf("path edges = %d", len(g.Edges))
	}
	if g := Cycle(5); len(g.Edges) != 5 {
		t.Fatalf("cycle edges = %d", len(g.Edges))
	}
	if g := Star(6); len(g.Edges) != 5 {
		t.Fatalf("star edges = %d", len(g.Edges))
	}
	if g := Complete(6); len(g.Edges) != 15 {
		t.Fatalf("K6 edges = %d", len(g.Edges))
	}
	g := Barbell(4, 2)
	// 2 * C(4,2) + bridge path edges (2 + 1).
	if len(g.Edges) != 2*6+3 {
		t.Fatalf("barbell edges = %d", len(g.Edges))
	}
	if g.N != 10 {
		t.Fatalf("barbell N = %d", g.N)
	}
}

func TestPlantedClique(t *testing.T) {
	g, clique := PlantedClique(40, 0.1, 6, 5)
	if len(clique) != 6 {
		t.Fatalf("clique size %d", len(clique))
	}
	adj := AdjacencyPattern(Dedup(g))
	for i := 0; i < len(clique); i++ {
		for j := i + 1; j < len(clique); j++ {
			if adj.At(clique[i], clique[j]) != 1 {
				t.Fatalf("clique edge (%d,%d) missing", clique[i], clique[j])
			}
		}
	}
}

func TestPaperGraphMatchesIncidence(t *testing.T) {
	g := PaperGraph()
	E := Incidence(g)
	want := [][]float64{
		{1, 1, 0, 0, 0},
		{0, 1, 1, 0, 0},
		{1, 0, 0, 1, 0},
		{0, 0, 1, 1, 0},
		{1, 0, 1, 0, 0},
		{0, 1, 0, 0, 1},
	}
	d := E.Dense()
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("E(%d,%d) = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}

func TestAdjacencyVariants(t *testing.T) {
	g := Graph{N: 3, Edges: []Edge{{0, 1}, {0, 1}, {1, 2}}}
	a := Adjacency(g)
	if a.At(0, 1) != 2 || a.At(1, 0) != 2 {
		t.Fatalf("multi-edge weight wrong")
	}
	p := AdjacencyPattern(g)
	if p.At(0, 1) != 1 {
		t.Fatalf("pattern wrong")
	}
	d := AdjacencyDirected(g)
	if d.At(1, 0) != 0 || d.At(0, 1) != 2 {
		t.Fatalf("directed wrong")
	}
}

func TestDedup(t *testing.T) {
	g := Graph{N: 3, Edges: []Edge{{0, 1}, {1, 0}, {1, 2}, {1, 1}}}
	d := Dedup(g)
	if len(d.Edges) != 2 {
		t.Fatalf("dedup edges = %d", len(d.Edges))
	}
}

func TestWeightedEdges(t *testing.T) {
	g := Path(4)
	ts := WeightedEdges(g, 10, 1)
	if len(ts) != 6 {
		t.Fatalf("weighted triples = %d", len(ts))
	}
	for _, tr := range ts {
		if tr.Val < 1 || tr.Val >= 10 {
			t.Fatalf("weight out of range: %v", tr.Val)
		}
	}
}

func TestTweetCorpus(t *testing.T) {
	c := NewTweetCorpus(TweetCorpusConfig{NumTweets: 500, Seed: 9})
	if c.NumTopics != 5 || len(c.Topic) != 500 {
		t.Fatalf("corpus shape wrong")
	}
	if len(c.A.Rows()) == 0 || len(c.A.Cols()) == 0 {
		t.Fatalf("empty corpus")
	}
	// Documents of topic 0 should use Turkish words overwhelmingly.
	turkish := map[string]bool{}
	for _, w := range TopicVocabularies[0] {
		turkish[w] = true
	}
	background := map[string]bool{}
	for _, w := range backgroundWords {
		background[w] = true
	}
	hits, total := 0.0, 0.0
	for _, e := range c.A.Entries() {
		var d int
		fmt := e.Row // doc%06d
		if len(fmt) != 9 {
			t.Fatalf("doc key %q", e.Row)
		}
		for _, ch := range fmt[3:] {
			d = d*10 + int(ch-'0')
		}
		if c.Topic[d] != 0 || background[e.Col] {
			continue
		}
		total += e.Val
		if turkish[e.Col] {
			hits += e.Val
		}
	}
	if total == 0 || hits/total < 0.99 {
		t.Fatalf("topic-0 vocabulary purity %v", hits/total)
	}
}

func TestRMATInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	RMAT(RMATConfig{Scale: 0})
}
