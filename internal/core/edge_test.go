package core

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/gen"
	"graphulo/internal/sched"
	"graphulo/internal/schema"
	"graphulo/internal/sparse"
	"graphulo/internal/telemetry"
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

// TestKTrussEdgeTableBarbell is the incidence k-truss's differential
// test on both local transports: on simple graphs the surviving edge
// ids equal the in-memory Algorithm 1's (algo.KTrussEdge on the same
// incidence matrix); on multigraphs, where Algorithm 1's R == 2 test
// miscounts a repeated pair, they are the ids whose endpoint pair is in
// the k-truss of the 0/1 pattern (algo.KTrussAdj). Barbell(4,1) at k=4
// takes two peel rounds, so it creates the adjacency scratch table plus
// one survivor table; every call leaves only its two output tables.
func TestKTrussEdgeTableBarbell(t *testing.T) {
	// The triangle {01, 12, 02} with 01 listed twice, and the diamond
	// {ab, ac, ad, bc, bd} with ac and bc listed twice.
	triangle := gen.Graph{N: 3, Edges: []gen.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 1}}}
	diamond := gen.Graph{N: 4, Edges: []gen.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 0, V: 2}, {U: 1, V: 2}}}
	er := gen.Dedup(gen.ErdosRenyi(30, 150, 5))
	rmat := gen.Dedup(gen.RMAT(gen.Graph500(6, 3)))
	cases := []struct {
		name      string
		g         gen.Graph
		k         int
		multi     bool  // reference: algo.KTrussAdj on the pattern
		scratches int64 // pinned ScratchTablesCreated delta; 0 = unpinned
	}{
		{name: "barbell4", g: gen.Dedup(gen.Barbell(4, 1)), k: 4, scratches: 2},
		{name: "er3", g: er, k: 3},
		{name: "er4", g: er, k: 4},
		{name: "er5", g: er, k: 5},
		{name: "rmat3", g: rmat, k: 3},
		{name: "rmat4", g: rmat, k: 4},
		{name: "rmat5", g: rmat, k: 5},
		{name: "multitriangle3", g: triangle, k: 3, multi: true},
		{name: "multidiamond4", g: diamond, k: 4, multi: true},
	}
	for transport, cfg := range transportConfigs() {
		conn := equivCluster(t, cfg)
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				inc, err := schema.NewIncidenceSchema(conn, tc.name)
				if err != nil {
					t.Fatal(err)
				}
				if err := inc.IngestGraph(tc.g); err != nil {
					t.Fatal(err)
				}
				ops := conn.TableOperations()
				tablesBefore := ops.List()
				stats := &conn.Cluster().Telemetry().Stats
				scratchBefore := stats.Get(telemetry.ScratchTablesCreated)
				outBase := tc.name + "Out"
				survivors, err := KTrussEdgeTable(conn, inc, tc.k, outBase)
				if err != nil {
					t.Fatal(err)
				}
				if n := stats.Get(telemetry.ScratchTablesCreated) - scratchBefore; tc.scratches != 0 && n != tc.scratches {
					t.Errorf("created %d scratch tables, want %d", n, tc.scratches)
				}
				wantTables := append(tablesBefore, outBase+"E", outBase+"ET")
				sort.Strings(wantTables)
				if tables := ops.List(); !reflect.DeepEqual(tables, wantTables) {
					t.Errorf("tables after the call = %v, want %v", tables, wantTables)
				}
				var wantIDs []string
				if tc.multi {
					wantIDs = trussEdgeIDs(tc.g, adjacencyPairs(algo.KTrussAdj(gen.AdjacencyPattern(tc.g), tc.k)))
				} else {
					// In-memory Algorithm 1 reference.
					E := gen.Incidence(tc.g)
					want := algo.KTrussEdge(E, tc.k)
					if len(survivors) != want.Rows() {
						t.Fatalf("table truss %d edges, in-memory %d", len(survivors), want.Rows())
					}
					wantIDs = trussEdgeIDs(tc.g, incidencePairs(want))
				}
				sort.Strings(survivors)
				if !reflect.DeepEqual(survivors, wantIDs) {
					t.Fatalf("%d-truss survivors = %v, want %v", tc.k, survivors, wantIDs)
				}
			})
		}
	}
}

// incidencePairs returns the endpoint pair (lower vertex first) of
// every row of an incidence matrix.
func incidencePairs(E *sparse.Matrix) map[[2]int]bool {
	pairs := map[[2]int]bool{}
	for i := 0; i < E.Rows(); i++ {
		if cols, _ := E.Row(i); len(cols) == 2 {
			pairs[[2]int{min(cols[0], cols[1]), max(cols[0], cols[1])}] = true
		}
	}
	return pairs
}

// adjacencyPairs returns the edges of a symmetric adjacency matrix as
// vertex pairs, lower vertex first.
func adjacencyPairs(A *sparse.Matrix) map[[2]int]bool {
	pairs := map[[2]int]bool{}
	for _, tr := range A.Triples() {
		if tr.Row < tr.Col {
			pairs[[2]int{tr.Row, tr.Col}] = true
		}
	}
	return pairs
}

// trussEdgeIDs returns, sorted, the ids of g's edges whose endpoint
// pair is in pairs.
func trussEdgeIDs(g gen.Graph, pairs map[[2]int]bool) []string {
	var ids []string
	for i, e := range g.Edges {
		if pairs[[2]int{min(e.U, e.V), max(e.U, e.V)}] {
			ids = append(ids, schema.EdgeName(i))
		}
	}
	sort.Strings(ids)
	return ids
}
