package core

import (
	"errors"
	"sort"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/gen"
	"graphulo/internal/sched"
	"graphulo/internal/schema"
)

func TestEdgeBFSMatchesAdjacencyBFS(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	inc, err := schema.NewIncidenceSchema(conn, "Inc")
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	visited, edges, err := EdgeBFS(conn, inc, []string{schema.VertexName(4)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels := algo.BFSLevels(gen.AdjacencyPattern(g), 4)
	for v, l := range wantLevels {
		key := schema.VertexName(v)
		if l >= 0 && l <= 3 {
			if visited[key] != l {
				t.Fatalf("level[%s] = %d, want %d (all %v)", key, visited[key], l, visited)
			}
		}
	}
	// All 6 edges are traversed within 3 hops from v5.
	if len(edges) != 6 {
		t.Fatalf("traversed %d edges, want 6", len(edges))
	}
}

func TestEdgeBFSOneHop(t *testing.T) {
	conn := testConn(t)
	g := gen.Star(5)
	inc, err := schema.NewIncidenceSchema(conn, "St")
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	visited, edges, err := EdgeBFS(conn, inc, []string{schema.VertexName(0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 5 { // hub + 4 leaves
		t.Fatalf("visited = %v", visited)
	}
	if len(edges) != 4 {
		t.Fatalf("edges = %v", edges)
	}
}

// TestEdgeBFSIsOneBudgetedQuery: EdgeBFS runs as one admitted, traced
// query like every other kernel driver, so a scan budget stops it with
// a typed error and the run leaves one finished EdgeBFS query record.
func TestEdgeBFSIsOneBudgetedQuery(t *testing.T) {
	mc := accumulo.NewMiniCluster(accumulo.Config{ScanEntryBudget: 1})
	defer mc.Close()
	conn := mc.Connector()
	inc, err := schema.NewIncidenceSchema(conn, "Bud")
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.IngestGraph(gen.PaperGraph()); err != nil {
		t.Fatal(err)
	}
	_, _, err = EdgeBFS(conn, inc, []string{schema.VertexName(4)}, 3)
	var be *sched.BudgetError
	if !errors.As(err, &be) || be.Resource != "scan entries" {
		t.Fatalf("EdgeBFS under a 1-entry scan budget returned %v, want a scan-entries *sched.BudgetError", err)
	}
	var records int
	for _, q := range mc.Telemetry().Snapshot() {
		if q.Kernel != "EdgeBFS" {
			continue
		}
		records++
		if !q.Done || q.Err == "" {
			t.Errorf("EdgeBFS query record done=%v err=%q, want finished with the budget error", q.Done, q.Err)
		}
	}
	if records != 1 {
		t.Fatalf("telemetry holds %d EdgeBFS queries, want 1", records)
	}
}

func TestKTrussEdgeTableMatchesAlgorithm1(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	inc, err := schema.NewIncidenceSchema(conn, "KT")
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	survivors, err := KTrussEdgeTable(conn, inc, 3, "KT3")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(survivors)
	// Algorithm 1 removes edge e6 (index 5): edges e0..e4 survive.
	want := []string{
		schema.EdgeName(0), schema.EdgeName(1), schema.EdgeName(2),
		schema.EdgeName(3), schema.EdgeName(4),
	}
	if len(survivors) != len(want) {
		t.Fatalf("survivors = %v, want %v", survivors, want)
	}
	for i := range want {
		if survivors[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", survivors, want)
		}
	}
	// The output table holds the surviving incidence matrix.
	out := readMatrix(t, conn, "KT3E")
	if len(out) != 5 {
		t.Fatalf("output incidence rows = %d, want 5", len(out))
	}
}

func TestKTrussEdgeTableBarbell(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Barbell(4, 1))
	inc, err := schema.NewIncidenceSchema(conn, "BB")
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	survivors, err := KTrussEdgeTable(conn, inc, 4, "BB4")
	if err != nil {
		t.Fatal(err)
	}
	// In-memory Algorithm 1 reference.
	E := gen.Incidence(g)
	want := algo.KTrussEdge(E, 4)
	if len(survivors) != want.Rows() {
		t.Fatalf("table truss %d edges, in-memory %d", len(survivors), want.Rows())
	}
}
