package core

import (
	"math"
	"strings"
	"testing"

	"graphulo/internal/algo"
	"graphulo/internal/gen"
	"graphulo/internal/schema"
)

func TestPageRankTableMatchesInMemory(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.RMAT(gen.Graph500(6, 21)))
	sch, err := schema.NewAdjacencySchema(conn, "PR")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	res, err := PageRankTable(conn, sch.Table, 0.15, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("table PageRank did not converge")
	}
	// In-memory reference on the same graph.
	want := algo.PageRank(gen.AdjacencyPattern(g), 0.15, 1e-12, 500)
	requireRanksMatch(t, res.Ranks, want.Scores, 1e-6)
}

// TestPageRankTableWeighted: a graph that keeps its repeated edges
// stores them as weights 2+, and the table PageRank walks them in
// proportion — its degrees are A's row sums, as algo.PageRank's are —
// on every transport.
func TestPageRankTableWeighted(t *testing.T) {
	g := gen.RMAT(gen.Graph500(6, 21))
	adj := gen.Adjacency(g)
	weighted := false
	for _, tr := range adj.Triples() {
		weighted = weighted || tr.Val >= 2
	}
	if !weighted {
		t.Fatal("the graph has no repeated edge")
	}
	want := algo.PageRank(adj, 0.15, 1e-13, 1000)
	for name, cfg := range transportConfigs() {
		t.Run(name, func(t *testing.T) {
			conn := equivCluster(t, cfg)
			sch, err := schema.NewAdjacencySchema(conn, "PRW")
			if err != nil {
				t.Fatal(err)
			}
			if err := sch.IngestGraph(g); err != nil {
				t.Fatal(err)
			}
			res, err := PageRankTable(conn, sch.Table, 0.15, 1e-13, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatal("table PageRank did not converge")
			}
			requireRanksMatch(t, res.Ranks, want.Scores, 1e-9)
		})
	}
}

// requireRanksMatch compares a table PageRank with an in-memory one.
// The table holds only vertices with an edge, so both are normalised
// over that common support before they are compared.
func requireRanksMatch(t *testing.T, got map[string]float64, want []float64, tol float64) {
	t.Helper()
	sumGot, sumWant := 0.0, 0.0
	for key, r := range got {
		v, err := schema.ParseVertex(key)
		if err != nil {
			t.Fatal(err)
		}
		sumGot += r
		sumWant += want[v]
	}
	for key, r := range got {
		v, _ := schema.ParseVertex(key)
		if g, w := r/sumGot, want[v]/sumWant; math.Abs(g-w) > tol {
			t.Fatalf("rank[%s] = %v, want %v", key, g, w)
		}
	}
}

func TestPageRankTableCycleUniform(t *testing.T) {
	conn := testConn(t)
	g := gen.Cycle(8)
	sch, err := schema.NewAdjacencySchema(conn, "CY")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	res, err := PageRankTable(conn, sch.Table, 0.15, 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Ranks {
		if math.Abs(r-0.125) > 1e-9 {
			t.Fatalf("cycle rank[%s] = %v, want 0.125", v, r)
		}
	}
}

func TestPageRankTableNoEdges(t *testing.T) {
	conn := testConn(t)
	if err := conn.TableOperations().Create("Empty"); err != nil {
		t.Fatal(err)
	}
	_, err := PageRankTable(conn, "Empty", 0.15, 1e-10, 10)
	if err == nil || !strings.Contains(err.Error(), `"Empty"`) {
		t.Fatalf("PageRank over an edgeless table: err = %v, want one naming the table", err)
	}
}
