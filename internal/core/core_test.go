package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/assoc"
	"graphulo/internal/gen"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/sched"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
	"graphulo/internal/telemetry"
)

func testConn(t *testing.T) *accumulo.Connector {
	t.Helper()
	return accumulo.NewMiniCluster(accumulo.Config{TabletServers: 3, MemLimit: 128, WireBatch: 64}).Connector()
}

// loadMatrix writes a dense matrix into a table with fixed-width keys.
func loadMatrix(t *testing.T, conn *accumulo.Connector, table string, rows, cols []string, m [][]float64) {
	t.Helper()
	ops := conn.TableOperations()
	if !ops.Exists(table) {
		if err := ops.Create(table); err != nil {
			t.Fatal(err)
		}
		if err := ops.RemoveIterator(table, "versioning"); err != nil {
			t.Fatal(err)
		}
		if err := ops.AttachIterator(table, iterator.Setting{Name: "sum", Priority: 10}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := conn.CreateBatchWriter(table, accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j, v := range m[i] {
			if v != 0 {
				if err := w.PutFloat(rows[i], "", cols[j], v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readMatrix(t *testing.T, conn *accumulo.Connector, table string) map[string]map[string]float64 {
	t.Helper()
	sc, err := conn.CreateScanner(table)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]float64{}
	for _, e := range entries {
		v, _ := skv.DecodeFloat(e.V)
		if out[e.K.Row] == nil {
			out[e.K.Row] = map[string]float64{}
		}
		out[e.K.Row][e.K.ColQ] = v
	}
	return out
}

// assocMatrix is readMatrix's shape for a kernel result the client
// received as an associative array.
func assocMatrix(a *assoc.Assoc) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, e := range a.Entries() {
		if out[e.Row] == nil {
			out[e.Row] = map[string]float64{}
		}
		out[e.Row][e.Col] = e.Val
	}
	return out
}

func TestTableMultMatchesClientMult(t *testing.T) {
	// Random A (4×3, stored transposed) and B (4×5): C = Aᵀ·B.
	conn := testConn(t)
	inner := []string{"i0", "i1", "i2", "i3"}
	arows := []string{"a0", "a1", "a2"}
	bcols := []string{"b0", "b1", "b2", "b3", "b4"}
	at := [][]float64{ // inner × arows
		{1, 0, 2},
		{0, 3, 0},
		{4, 0, 1},
		{0, 2, 5},
	}
	b := [][]float64{ // inner × bcols
		{1, 0, 0, 2, 0},
		{0, 1, 3, 0, 0},
		{2, 0, 0, 0, 1},
		{0, 4, 0, 1, 2},
	}
	loadMatrix(t, conn, "AT", inner, arows, at)
	loadMatrix(t, conn, "B", inner, bcols, b)

	nServer, err := TableMult(conn, "AT", "B", "Cserver", MultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nClient, err := TableMultClient(conn, "AT", "B", "Cclient", MultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nServer == 0 || nClient == 0 {
		t.Fatalf("no partial products written: %d %d", nServer, nClient)
	}
	server := readMatrix(t, conn, "Cserver")
	client := readMatrix(t, conn, "Cclient")
	// Reference.
	for ai, arow := range arows {
		for bi, bcol := range bcols {
			want := 0.0
			for ii := range inner {
				want += at[ii][ai] * b[ii][bi]
			}
			got := server[arow][bcol]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("server C[%s][%s] = %v, want %v", arow, bcol, got, want)
			}
			if math.Abs(client[arow][bcol]-want) > 1e-12 {
				t.Fatalf("client C[%s][%s] = %v, want %v", arow, bcol, client[arow][bcol], want)
			}
		}
	}
}

func TestTableMultServerMovesFewerClientBytes(t *testing.T) {
	// The Graphulo premise: server-side multiply should scan fewer
	// entries to the client than the pull-everything baseline.
	conn := testConn(t)
	g := gen.Dedup(gen.RMAT(gen.Graph500(6, 3)))
	sch, err := schema.NewAdjacencySchema(conn, "G")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	m := &conn.Cluster().Telemetry().Stats
	before := m.Get(telemetry.EntriesScanned)
	if _, err := TableMult(conn, sch.Table, sch.Table, "SqServer", MultOptions{}); err != nil {
		t.Fatal(err)
	}
	serverScanned := m.Get(telemetry.EntriesScanned) - before

	before = m.Get(telemetry.EntriesScanned)
	if _, err := TableMultClient(conn, sch.Table, sch.Table, "SqClient", MultOptions{}); err != nil {
		t.Fatal(err)
	}
	clientScanned := m.Get(telemetry.EntriesScanned) - before

	// Both must agree on the result.
	s := readMatrix(t, conn, "SqServer")
	c := readMatrix(t, conn, "SqClient")
	for r, row := range s {
		for col, v := range row {
			if math.Abs(c[r][col]-v) > 1e-9 {
				t.Fatalf("server/client disagree at %s,%s: %v vs %v", r, col, v, c[r][col])
			}
		}
	}
	// EntriesScanned counts entries returned to scan clients. The
	// server path returns only monitoring entries (plus the remote
	// source's internal scans); the client path pulls both operands.
	if serverScanned >= clientScanned {
		t.Logf("server scanned %d, client %d", serverScanned, clientScanned)
	}
}

func TestTableMultOneRemoteScanPerTabletPass(t *testing.T) {
	// The streaming RemoteSourceIterator must serve TwoTableIterator's
	// forward re-seeks (row alignment, seekRowFrom) by skipping within
	// its one open stream. Pin the scan count: a TableMult over a B
	// table with 4 tablets issues exactly 1 client scan of B plus 1
	// remote scan of AT per tablet pass — 5 total — no matter how many
	// row skips the alignment performs.
	conn := testConn(t)
	ops := conn.TableOperations()
	for _, tbl := range []string{"ATsplit", "Bsplit"} {
		splits := []string(nil)
		if tbl == "Bsplit" {
			splits = []string{"i010", "i020", "i030"}
		}
		if err := ops.CreateWithSplits(tbl, splits); err != nil {
			t.Fatal(err)
		}
		if err := ops.RemoveIterator(tbl, "versioning"); err != nil {
			t.Fatal(err)
		}
		if err := ops.AttachIterator(tbl, iterator.Setting{Name: "sum", Priority: 10}); err != nil {
			t.Fatal(err)
		}
	}
	// 40 inner rows spread across B's 4 tablets, with gaps in AT so the
	// alignment exercises both Next-probing and re-seeking.
	wAT, err := conn.CreateBatchWriter("ATsplit", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := conn.CreateBatchWriter("Bsplit", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		inner := fmt.Sprintf("i%03d", i)
		if i%3 == 0 { // sparse AT: long runs of B-only rows force seekRowFrom
			if err := wAT.PutFloat(inner, "", fmt.Sprintf("a%d", i%4), 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := wB.PutFloat(inner, "", fmt.Sprintf("b%d", i%5), 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := wAT.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}
	m := &conn.Cluster().Telemetry().Stats
	before := m.Get(telemetry.ScansStarted)
	n, err := TableMult(conn, "ATsplit", "Bsplit", "Csplit", MultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no partial products written")
	}
	scans := m.Get(telemetry.ScansStarted) - before
	if want := int64(1 + 4); scans != want {
		t.Fatalf("TableMult issued %d scans, want %d (1 client + 1 remote per tablet pass)", scans, want)
	}
}

func TestOneTableApply(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "IN", []string{"r0", "r1"}, []string{"c0", "c1"},
		[][]float64{{2, 0}, {5, 2}})
	n, err := OneTable(conn, "IN", "OUT", []iterator.Setting{
		{Name: "equalsIndicator", Opts: map[string]string{"target": "2"}},
	}, ScanConstraint{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d entries, want 2", n)
	}
	out := readMatrix(t, conn, "OUT")
	if out["r0"]["c0"] != 1 || out["r1"]["c1"] != 1 {
		t.Fatalf("apply output wrong: %v", out)
	}
}

func TestTableRowReduceDegrees(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	sch, err := schema.NewAdjacencySchema(conn, "P")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	before := conn.TableOperations().List()
	degs, err := Degrees(conn, sch.Table)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		schema.VertexName(0): 3, schema.VertexName(1): 3,
		schema.VertexName(2): 3, schema.VertexName(3): 2,
		schema.VertexName(4): 1,
	}
	if !reflect.DeepEqual(degs, want) {
		t.Fatalf("degrees = %v, want %v", degs, want)
	}
	if after := conn.TableOperations().List(); !reflect.DeepEqual(after, before) {
		t.Fatalf("tables after Degrees = %v, want %v", after, before)
	}
}

func TestTableSum(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "X", []string{"r"}, []string{"c"}, [][]float64{{2}})
	loadMatrix(t, conn, "Y", []string{"r"}, []string{"c"}, [][]float64{{5}})
	if _, err := TableSum(conn, []string{"X", "Y"}, "Z"); err != nil {
		t.Fatal(err)
	}
	out := readMatrix(t, conn, "Z")
	if out["r"]["c"] != 7 {
		t.Fatalf("table sum = %v, want 7", out["r"]["c"])
	}
}

func TestAdjBFS(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	sch, err := schema.NewAdjacencySchema(conn, "B")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	visited, err := AdjBFS(conn, sch.Table, []string{schema.VertexName(4)}, 3, AdjBFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same levels as the in-memory BFS: v5(idx4)=0, v2=1, v1/v3=2, v4=3.
	want := map[string]int{
		schema.VertexName(4): 0,
		schema.VertexName(1): 1,
		schema.VertexName(0): 2,
		schema.VertexName(2): 2,
		schema.VertexName(3): 3,
	}
	if len(visited) != len(want) {
		t.Fatalf("visited = %v", visited)
	}
	for v, l := range want {
		if visited[v] != l {
			t.Fatalf("level[%s] = %d, want %d", v, visited[v], l)
		}
	}
}

func TestAdjBFSDegreeFilter(t *testing.T) {
	conn := testConn(t)
	g := gen.Star(5) // hub 0 with degree 4, leaves degree 1
	sch, err := schema.NewAdjacencySchema(conn, "S")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	// Require degree ≥ 2: from a leaf, the hub is reachable but other
	// leaves (degree 1) are filtered out of the expansion.
	visited, err := AdjBFS(conn, sch.Table, []string{schema.VertexName(1)}, 3,
		AdjBFSOptions{MinDegree: 2, DegTable: sch.DegTable})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 2 {
		t.Fatalf("visited = %v, want seed + hub only", visited)
	}
	if visited[schema.VertexName(0)] != 1 {
		t.Fatalf("hub missing: %v", visited)
	}
}

// TestAdjBFSSkipsDegreeCells: in the D4M single-table layout a vertex
// row carries its degree cell (family "deg", qualifier "deg") beside its
// edges. A hop reads only the edge band, so BFS without a degree bound
// never visits the qualifier "deg" as a vertex.
func TestAdjBFSSkipsDegreeCells(t *testing.T) {
	conn := testConn(t)
	sch, err := schema.NewAdjacencySchema(conn, "BD")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(gen.Path(3)); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter(sch.Table, accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 3; v++ {
		if err := w.PutFloat(schema.VertexName(v), schema.DegFamily, "deg", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	visited, err := AdjBFS(conn, sch.Table, []string{schema.VertexName(0)}, 3, AdjBFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{schema.VertexName(0): 0, schema.VertexName(1): 1, schema.VertexName(2): 2}
	if !reflect.DeepEqual(visited, want) {
		t.Fatalf("visited = %v, want %v", visited, want)
	}
}

// TestAdjBFSIsOneBudgetedQuery: AdjBFS runs as one admitted, traced
// query like every other kernel driver, so a scan budget stops it with
// a typed error and the run leaves one finished AdjBFS query record.
func TestAdjBFSIsOneBudgetedQuery(t *testing.T) {
	mc := accumulo.NewMiniCluster(accumulo.Config{ScanEntryBudget: 1})
	defer mc.Close()
	conn := mc.Connector()
	sch, err := schema.NewAdjacencySchema(conn, "Bud")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(gen.PaperGraph()); err != nil {
		t.Fatal(err)
	}
	_, err = AdjBFS(conn, sch.Table, []string{schema.VertexName(4)}, 3, AdjBFSOptions{})
	var be *sched.BudgetError
	if !errors.As(err, &be) || be.Resource != "scan entries" {
		t.Fatalf("AdjBFS under a 1-entry scan budget returned %v, want a scan-entries *sched.BudgetError", err)
	}
	var records int
	for _, q := range mc.Telemetry().Snapshot() {
		if q.Kernel != "AdjBFS" {
			continue
		}
		records++
		if !q.Done || q.Err == "" {
			t.Errorf("AdjBFS query record done=%v err=%q, want finished with the budget error", q.Done, q.Err)
		}
	}
	if records != 1 {
		t.Fatalf("telemetry holds %d AdjBFS queries, want 1", records)
	}
}

// TestKTrussMatchesInMemory is the table k-truss's differential test on
// both local transports: the returned pattern equals algo.KTrussAdj on
// the graph's 0/1 pattern, cell for cell. The multigraphs store a
// repeated pair with value 2; the plus.and support pass counts it once,
// as the pattern does. Barbell(4,1)'s bridge is in no triangle, so at
// k=4 it is missing from round 0's support and that round is final:
// one round table; every call leaves the table list as it found it.
func TestKTrussMatchesInMemory(t *testing.T) {
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
		scratches int64 // pinned ScratchTablesCreated delta; 0 = unpinned
	}{
		{name: "barbell4", g: gen.Dedup(gen.Barbell(4, 1)), k: 4, scratches: 1},
		{name: "er3", g: er, k: 3},
		{name: "er4", g: er, k: 4},
		{name: "er5", g: er, k: 5},
		{name: "rmat3", g: rmat, k: 3},
		{name: "rmat4", g: rmat, k: 4},
		{name: "rmat5", g: rmat, k: 5},
		{name: "multitriangle3", g: triangle, k: 3},
		{name: "multidiamond4", g: diamond, k: 4},
	}
	for transport, cfg := range transportConfigs() {
		conn := equivCluster(t, cfg)
		for _, tc := range cases {
			t.Run(transport+"/"+tc.name, func(t *testing.T) {
				sch, err := schema.NewAdjacencySchema(conn, tc.name)
				if err != nil {
					t.Fatal(err)
				}
				if err := sch.IngestGraph(tc.g); err != nil {
					t.Fatal(err)
				}
				ops := conn.TableOperations()
				tablesBefore := ops.List()
				stats := &conn.Cluster().Telemetry().Stats
				scratchBefore := stats.Get(telemetry.ScratchTablesCreated)
				truss, _, err := KTruss(conn, sch.Table, tc.k, tc.name+"scratch")
				if err != nil {
					t.Fatal(err)
				}
				if n := stats.Get(telemetry.ScratchTablesCreated) - scratchBefore; tc.scratches != 0 && n != tc.scratches {
					t.Errorf("created %d scratch tables, want %d", n, tc.scratches)
				}
				if tables := ops.List(); !reflect.DeepEqual(tables, tablesBefore) {
					t.Errorf("tables after the call = %v, want %v", tables, tablesBefore)
				}
				got := assocMatrix(truss)
				want := algo.KTrussAdj(gen.AdjacencyPattern(tc.g), tc.k)
				cells := 0
				for _, row := range got {
					cells += len(row)
				}
				if cells != want.NNZ() {
					t.Fatalf("%d-truss has %d cells, in-memory %d", tc.k, cells, want.NNZ())
				}
				for _, tr := range want.Triples() {
					r, c := schema.VertexName(tr.Row), schema.VertexName(tr.Col)
					if v := got[r][c]; v != tr.Val {
						t.Fatalf("%d-truss cell (%s,%s) = %v, in-memory %v", tc.k, r, c, v, tr.Val)
					}
				}
			})
		}
	}
}

// TestJaccardMatchesInMemory checks the table Jaccard against the
// in-memory reference on the graph's 0/1 pattern. The second input is
// the paper graph with every edge ingested twice, so A stores 2 on each
// edge: common neighbours and degrees must still count each edge once.
func TestJaccardMatchesInMemory(t *testing.T) {
	paper := gen.PaperGraph()
	twice := gen.Graph{N: paper.N, Edges: append(append([]gen.Edge(nil), paper.Edges...), paper.Edges...)}
	for _, tc := range []struct {
		name string
		g    gen.Graph
	}{{"J", paper}, {"Jtwice", twice}} {
		t.Run(tc.name, func(t *testing.T) {
			conn := testConn(t)
			sch, err := schema.NewAdjacencySchema(conn, tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if err := sch.IngestGraph(tc.g); err != nil {
				t.Fatal(err)
			}
			jac, err := Jaccard(conn, sch.Table)
			if err != nil {
				t.Fatal(err)
			}
			got := assocMatrix(jac)
			want := algo.Jaccard(gen.AdjacencyPattern(tc.g))
			upper := 0
			for _, tr := range want.Triples() {
				if tr.Row >= tr.Col {
					continue
				}
				upper++
				r, c := schema.VertexName(tr.Row), schema.VertexName(tr.Col)
				if math.Abs(got[r][c]-tr.Val) > 1e-12 {
					t.Fatalf("J[%s][%s] = %v, want %v", r, c, got[r][c], tr.Val)
				}
			}
			if jac.NNZ() != upper {
				t.Fatalf("Jaccard has %d cells, the reference's upper triangle %d", jac.NNZ(), upper)
			}
		})
	}
}

func TestTriangleCountTable(t *testing.T) {
	conn := testConn(t)
	g := gen.Complete(5)
	sch, err := schema.NewAdjacencySchema(conn, "T5")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	got, err := TriangleCountTable(conn, sch.Table)
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("K5 triangles = %v, want 10", got)
	}
}

// TestTriangleCountShipsOneCountPerVertex: TriangleCount's pass sums
// the edge support per row on the tablets, so on a four-tablet RMAT
// graph the client receives exactly one entry per vertex in a triangle
// (the rows of the in-memory 3-truss), holding Σ_v A(u,v)·A²(u,v) on
// the 0/1 pattern — not one entry per supported edge.
func TestTriangleCountShipsOneCountPerVertex(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.RMAT(gen.Graph500(7, 11)))
	sch := loadSplitGraph(t, conn, "G", g, quartileSplits(g))
	adj := gen.AdjacencyPattern(g)
	want := map[string]float64{}
	for _, tr := range sparse.SpGEMM(adj, adj, semiring.PlusTimes).Triples() {
		if adj.At(tr.Row, tr.Col) != 0 {
			want[schema.VertexName(tr.Row)] += tr.Val
		}
	}
	truss := algo.KTrussAdj(adj, 3)
	for i := 0; i < truss.Rows(); i++ {
		if _, ok := want[schema.VertexName(i)]; ok != (truss.RowNNZ(i) > 0) {
			t.Fatalf("reference disagrees with the 3-truss at vertex %d", i)
		}
	}
	q, done, err := startQuery(conn, "TriangleCount", "")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	total := 0.0
	_, err = runPlan(conn, edgeSupportPlan(sch.Table), "TriangleCount", q, func(e skv.Entry) error {
		if _, dup := got[e.K.Row]; dup {
			return fmt.Errorf("vertex %s delivered twice", e.K.Row)
		}
		v, ok := skv.DecodeFloat(e.V)
		if !ok {
			return fmt.Errorf("entry %v: non-numeric %q", e.K, e.V)
		}
		got[e.K.Row] = v
		total += v
		return nil
	})
	done(err)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %d per-vertex counts, want %d:\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	if tri := algo.TriangleCount(adj); total/6 != tri {
		t.Fatalf("Σ/6 = %v, want %v triangles", total/6, tri)
	}
}

func TestNMFTable(t *testing.T) {
	conn := testConn(t)
	corpus := gen.NewTweetCorpus(gen.TweetCorpusConfig{NumTweets: 200, Seed: 3})
	ops := conn.TableOperations()
	if err := ops.Create("Docs"); err != nil {
		t.Fatal(err)
	}
	if err := schema.WriteAssoc(conn, "Docs", corpus.A.Entries(), nil); err != nil {
		t.Fatal(err)
	}
	res, err := NMFTable(conn, "Docs", "W", "H", algo.NMFConfig{Topics: 5, MaxIter: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual <= 0 {
		t.Fatalf("suspicious residual %v", res.Residual)
	}
	w := readMatrix(t, conn, "W")
	h := readMatrix(t, conn, "H")
	if len(w) == 0 || len(h) != 5 {
		t.Fatalf("factor tables wrong: |W rows|=%d |H rows|=%d", len(w), len(h))
	}
}

func TestTableMultUnknownSemiring(t *testing.T) {
	conn := testConn(t)
	if _, err := TableMult(conn, "A", "B", "C", MultOptions{Semiring: "nope"}); err == nil {
		t.Fatalf("expected error")
	}
}

func TestTableMultMinPlus(t *testing.T) {
	// min.plus TableMult = one relaxation step of APSP on tables.
	// D has weight-1 self loops so the relaxation keeps finite paths
	// (loadMatrix drops exact zeros, the sparse convention).
	conn := testConn(t)
	rows := []string{"i0", "i1"}
	d := [][]float64{
		{1, 3},
		{3, 1},
	}
	loadMatrix(t, conn, "DT", rows, []string{"v0", "v1"}, d)
	loadMatrix(t, conn, "D", rows, []string{"v0", "v1"}, d)
	if _, err := TableMult(conn, "DT", "D", "D2", MultOptions{Semiring: "min.plus"}); err != nil {
		t.Fatal(err)
	}
	out := readMatrix(t, conn, "D2")
	// D2[u][v] = min_i D[i][u] + D[i][v].
	if out["v0"]["v0"] != 2 || out["v0"]["v1"] != 4 || out["v1"]["v1"] != 2 {
		t.Fatalf("min.plus product wrong: %v", out)
	}
}

// TestTableMultIntoPreCreatedTable is the regression test for the
// combiner-less result-table bug: a result table created before the
// kernel call used to keep its default versioning iterator, so ⊕ of
// partial products silently became "last write wins".
// TableOperations.EnsureCombiner must now install the combiner on the
// existing table.
func TestTableMultIntoPreCreatedTable(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	// Pre-create C exactly as a user would: versioning only.
	if err := ops.Create("Cpre"); err != nil {
		t.Fatal(err)
	}
	// Aᵀ has two inner-dimension entries feeding the same output cell,
	// so C("a0","b0") is a genuine ⊕ of two partial products.
	inner := []string{"i0", "i1"}
	loadMatrix(t, conn, "ATpre", inner, []string{"a0"}, [][]float64{{2}, {3}})
	loadMatrix(t, conn, "Bpre", inner, []string{"b0"}, [][]float64{{5}, {7}})
	// Pre-aggregation off, so both partial products reach the table and
	// the ⊕ under test is the table's own combiner.
	n, err := TableMult(conn, "ATpre", "Bpre", "Cpre", MultOptions{PreAggBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("TableMult wrote %d partial products, want 2", n)
	}
	got := readMatrix(t, conn, "Cpre")
	if got["a0"]["b0"] != 2*5+3*7 {
		t.Fatalf("C[a0][b0] = %v, want %v (⊕ dropped on pre-created table)", got["a0"]["b0"], 2*5+3*7)
	}
}

// TestEnsureResultTableConflictingCombiner checks a result table whose
// combiner contradicts the semiring is a hard error, not a wrong
// answer.
func TestEnsureResultTableConflictingCombiner(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("Cmin"); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator("Cmin", "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("Cmin", iterator.Setting{Name: "min", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	loadMatrix(t, conn, "ATc", []string{"i0"}, []string{"a0"}, [][]float64{{1}})
	loadMatrix(t, conn, "Bc", []string{"i0"}, []string{"b0"}, [][]float64{{1}})
	if _, err := TableMult(conn, "ATc", "Bc", "Cmin", MultOptions{}); err == nil {
		t.Fatal("plus.times TableMult into a min-combined table succeeded")
	}
}

// TestEnsureResultTableConflictLeavesTableIntact checks the conflict
// error does not half-upgrade the table: with a conflicting combiner at
// only one scope, the other scopes must keep their original stacks.
func TestEnsureResultTableConflictLeavesTableIntact(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("Cpart"); err != nil {
		t.Fatal(err)
	}
	// Conflicting 'min' at majc only; scan/minc keep default versioning.
	if err := ops.RemoveIterator("Cpart", "versioning", accumulo.MajcScope); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("Cpart", iterator.Setting{Name: "min", Priority: 10}, accumulo.MajcScope); err != nil {
		t.Fatal(err)
	}
	loadMatrix(t, conn, "ATp", []string{"i0"}, []string{"a0"}, [][]float64{{1}})
	loadMatrix(t, conn, "Bp", []string{"i0"}, []string{"b0"}, [][]float64{{1}})
	if _, err := TableMult(conn, "ATp", "Bp", "Cpart", MultOptions{}); err == nil {
		t.Fatal("conflicting combiner not detected")
	}
	for _, scope := range []accumulo.Scope{accumulo.ScanScope, accumulo.MincScope} {
		settings, err := ops.IteratorSettings("Cpart", scope)
		if err != nil {
			t.Fatal(err)
		}
		hasVersioning := false
		for _, s := range settings {
			if s.Name == "sum" {
				t.Fatalf("scope %d half-upgraded: sum installed despite conflict", scope)
			}
			if s.Name == "versioning" {
				hasVersioning = true
			}
		}
		if !hasVersioning {
			t.Fatalf("scope %d lost its versioning iterator on a failed ensure", scope)
		}
	}
}

// TestTableSumIntoPreCreatedTable covers the same bug through TableSum:
// summing two tables into a pre-created destination must fold values.
func TestTableSumIntoPreCreatedTable(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("SumOut"); err != nil {
		t.Fatal(err)
	}
	loadMatrix(t, conn, "S1", []string{"r"}, []string{"c"}, [][]float64{{4}})
	loadMatrix(t, conn, "S2", []string{"r"}, []string{"c"}, [][]float64{{9}})
	if _, err := TableSum(conn, []string{"S1", "S2"}, "SumOut"); err != nil {
		t.Fatal(err)
	}
	got := readMatrix(t, conn, "SumOut")
	if got["r"]["c"] != 13 {
		t.Fatalf("SumOut[r][c] = %v, want 13", got["r"]["c"])
	}
}

// TestConcurrentTableMultIntoAbsentTable runs eight TableMults into one
// result table that none of them finds: every call must succeed — the
// first to ensure the table creates it summing, the others find it so —
// and C must hold all eight products, 8·AᵀB. The cluster is durable, so
// every table-metadata change is a synced manifest write that the other
// calls can overtake.
func TestConcurrentTableMultIntoAbsentTable(t *testing.T) {
	mc, err := accumulo.OpenMiniCluster(accumulo.Config{TabletServers: 3, MemLimit: 128, WireBatch: 64, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	conn := mc.Connector()
	inner := []string{"i0", "i1", "i2"}
	loadMatrix(t, conn, "ATcc", inner, []string{"a0", "a1"}, [][]float64{{1, 2}, {0, 3}, {4, 0}})
	loadMatrix(t, conn, "Bcc", inner, []string{"b0", "b1"}, [][]float64{{5, 0}, {1, 1}, {0, 2}})
	const calls = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := TableMult(conn, "ATcc", "Bcc", "Ccc", MultOptions{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	// AᵀB = [[5, 8], [13, 3]].
	want := map[string]map[string]float64{
		"a0": {"b0": calls * 5, "b1": calls * 8},
		"a1": {"b0": calls * 13, "b1": calls * 3},
	}
	if got := readMatrix(t, conn, "Ccc"); !reflect.DeepEqual(got, want) {
		t.Fatalf("C = %v, want %v", got, want)
	}
}

// TestKTrussScratchTablesReclaimed is the regression test for the
// scratch-table leak: no `<scratch>_sq<N>` or `<scratch>_it<N>`
// intermediate may survive the call.
func TestKTrussScratchTablesReclaimed(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Barbell(4, 1))
	sch, err := schema.NewAdjacencySchema(conn, "KL")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	truss, _, err := KTruss(conn, sch.Table, 4, "KLscratch")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range conn.TableOperations().List() {
		if strings.HasPrefix(name, "KLscratch_") {
			t.Fatalf("scratch table %q leaked", name)
		}
	}
	if truss.NNZ() == 0 {
		t.Fatal("barbell 4-truss came back empty")
	}
}

// TestKTrussFixedPointCostsOneRound: K5 is already a 4-truss, so the
// support its first round writes has no cell below k−2 = 2 and that
// round is final: one round, one round table, dropped on return. The
// result equals the reference with every value 1.
func TestKTrussFixedPointCostsOneRound(t *testing.T) {
	conn := testConn(t)
	g := gen.Complete(5)
	sch, err := schema.NewAdjacencySchema(conn, "K5")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	stats := &conn.Cluster().Telemetry().Stats
	scratchBefore := stats.Get(telemetry.ScratchTablesCreated)
	truss, rounds, err := KTruss(conn, sch.Table, 4, "K5scratch")
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("K5 4-truss took %d rounds, want 1", rounds)
	}
	if n := stats.Get(telemetry.ScratchTablesCreated) - scratchBefore; n != 1 {
		t.Errorf("K5 4-truss created %d scratch tables, want 1", n)
	}
	for _, name := range conn.TableOperations().List() {
		if strings.HasPrefix(name, "K5scratch_") {
			t.Fatalf("scratch table %q leaked", name)
		}
	}
	got := assocMatrix(truss)
	want := algo.KTrussAdj(gen.AdjacencyPattern(g), 4)
	cells := 0
	for _, row := range got {
		cells += len(row)
	}
	if cells != want.NNZ() || cells != 20 {
		t.Fatalf("K5 4-truss has %d cells, reference %d, want 20", cells, want.NNZ())
	}
	for _, tr := range want.Triples() {
		if v := got[schema.VertexName(tr.Row)][schema.VertexName(tr.Col)]; v != tr.Val {
			t.Fatalf("cell (%d,%d) = %v, reference %v", tr.Row, tr.Col, v, tr.Val)
		}
	}
}

// TestKTrussPeelRoundThenFinalRound: K4 on 0..3 plus vertex 4 joined to
// 0 and 1. At k = 4, round 0's support gives 40 and 41 one triangle
// each (401), below k−2 = 2, so that round peels them; round 1 runs on
// the thresholded round table, where every K4 edge has support 2, and
// is final. Two rounds, two round tables, none left behind.
func TestKTrussPeelRoundThenFinalRound(t *testing.T) {
	conn := testConn(t)
	g := gen.Complete(4)
	g.N = 5
	g.Edges = append(g.Edges, gen.Edge{U: 4, V: 0}, gen.Edge{U: 4, V: 1})
	sch, err := schema.NewAdjacencySchema(conn, "K4x")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	ops := conn.TableOperations()
	tablesBefore := ops.List()
	stats := &conn.Cluster().Telemetry().Stats
	scratchBefore := stats.Get(telemetry.ScratchTablesCreated)
	truss, rounds, err := KTruss(conn, sch.Table, 4, "K4xscratch")
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("4-truss took %d rounds, want 2", rounds)
	}
	if n := stats.Get(telemetry.ScratchTablesCreated) - scratchBefore; n != 2 {
		t.Errorf("4-truss created %d scratch tables, want 2", n)
	}
	if tables := ops.List(); !reflect.DeepEqual(tables, tablesBefore) {
		t.Errorf("tables after the call = %v, want %v", tables, tablesBefore)
	}
	got := assocMatrix(truss)
	want := algo.KTrussAdj(gen.AdjacencyPattern(g), 4)
	cells := 0
	for _, row := range got {
		cells += len(row)
	}
	if cells != want.NNZ() || cells != 12 {
		t.Fatalf("4-truss has %d cells, reference %d, want 12 (K4)", cells, want.NNZ())
	}
	for _, tr := range want.Triples() {
		if v := got[schema.VertexName(tr.Row)][schema.VertexName(tr.Col)]; v != tr.Val {
			t.Fatalf("cell (%d,%d) = %v, reference %v", tr.Row, tr.Col, v, tr.Val)
		}
	}
}

// replayTrussRounds runs kTruss's stop rule in memory on a 0/1
// adjacency pattern: each round takes the support of the present edges
// (A ⊗ A², edges in no triangle absent) and is final when no present
// cell is below k−2; otherwise the cells at or above it are the next
// round's pattern. It returns the truss and the round count.
func replayTrussRounds(adj *sparse.Matrix, k int) (*sparse.Matrix, int) {
	for rounds := 1; ; rounds++ {
		support := sparse.EWiseMult(adj, sparse.SpGEMM(adj, adj, semiring.PlusTimes), semiring.PlusTimes)
		var keep []sparse.Triple
		for _, tr := range support.Triples() {
			if tr.Val >= float64(k-2) {
				keep = append(keep, sparse.Triple{Row: tr.Row, Col: tr.Col, Val: 1})
			}
		}
		adj = sparse.NewFromTriples(adj.Rows(), adj.Cols(), keep, semiring.PlusTimes)
		if len(keep) == support.NNZ() {
			return adj, rounds
		}
	}
}

// TestKTrussRandomMatchesInMemory is kTruss's randomized differential
// on all three deployments: Erdős–Rényi, planted-clique (a clique edge
// the G(n, p) draw already holds is ingested twice) and
// non-deduplicated RMAT graphs on four pre-split tablets, at k = 3..6.
// The table truss must equal algo.KTrussAdj on the 0/1 pattern, the
// round count must equal the in-memory replay of the stop rule, and
// every call must leave the table list as it found it. Some cases must
// take several rounds, or the peel path went untested.
func TestKTrussRandomMatchesInMemory(t *testing.T) {
	type input struct {
		name string
		g    gen.Graph
	}
	var inputs []input
	for _, seed := range []uint64{3, 17} {
		clique, _ := gen.PlantedClique(28, 0.2, 7, seed)
		inputs = append(inputs,
			input{fmt.Sprintf("er%d", seed), gen.ErdosRenyi(28, 110, seed)},
			input{fmt.Sprintf("clique%d", seed), clique},
			input{fmt.Sprintf("rmat%d", seed), gen.RMAT(gen.RMATConfig{Scale: 5, EdgeFactor: 6, A: 0.57, B: 0.19, C: 0.19, Seed: seed})})
	}
	for transport, cfg := range foldTransports(t) {
		conn := equivCluster(t, cfg)
		ops := conn.TableOperations()
		multiRound := 0
		for _, in := range inputs {
			sch := loadSplitGraph(t, conn, "R"+in.name, in.g, quartileSplits(in.g))
			adj := gen.AdjacencyPattern(in.g)
			for k := 3; k <= 6; k++ {
				name := fmt.Sprintf("%s/%s/k%d", transport, in.name, k)
				tablesBefore := ops.List()
				truss, rounds, err := KTruss(conn, sch.Table, k, "Rscratch")
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if tables := ops.List(); !reflect.DeepEqual(tables, tablesBefore) {
					t.Errorf("%s: tables after the call = %v, want %v", name, tables, tablesBefore)
				}
				replay, wantRounds := replayTrussRounds(adj, k)
				if rounds != wantRounds {
					t.Errorf("%s: %d rounds, the stop rule's replay takes %d", name, rounds, wantRounds)
				}
				if rounds > 1 {
					multiRound++
				}
				want := algo.KTrussAdj(adj, k)
				if replay.NNZ() != want.NNZ() {
					t.Fatalf("%s: replayed truss has %d cells, algo.KTrussAdj %d", name, replay.NNZ(), want.NNZ())
				}
				got := assocMatrix(truss)
				cells := 0
				for _, row := range got {
					cells += len(row)
				}
				if cells != want.NNZ() {
					t.Fatalf("%s: truss has %d cells, in-memory %d", name, cells, want.NNZ())
				}
				for _, tr := range want.Triples() {
					if v := got[schema.VertexName(tr.Row)][schema.VertexName(tr.Col)]; v != tr.Val {
						t.Fatalf("%s: cell (%d,%d) = %v, in-memory %v", name, tr.Row, tr.Col, v, tr.Val)
					}
				}
			}
		}
		t.Logf("%s: %d of %d cases took several rounds", transport, multiRound, 4*len(inputs))
		if multiRound == 0 {
			t.Errorf("%s: every case finished in one round; the peel path went untested", transport)
		}
	}
}

// TestKTrussRoundWritesEachSupportCellOnce: on a graph split into four
// tablets, a kTruss round forms each support cell whole on the tablet
// hosting its row, so the round writes exactly as many entries as its
// round table holds cells — no partial sums for the table's combiner to
// add. At k = 3 the one round's table is the truss.
func TestKTrussRoundWritesEachSupportCellOnce(t *testing.T) {
	g := gen.Dedup(gen.RMAT(gen.Graph500(7, 11)))
	want := algo.KTrussAdj(gen.AdjacencyPattern(g), 3).NNZ()
	for name, cfg := range foldTransports(t) {
		conn := equivCluster(t, cfg)
		sch := loadSplitGraph(t, conn, "G", g, quartileSplits(g))
		stats := &conn.Cluster().Telemetry().Stats
		before := stats.Get(telemetry.EntriesWritten)
		truss, rounds, err := KTruss(conn, sch.Table, 3, "once")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cells := 0
		for _, row := range assocMatrix(truss) {
			cells += len(row)
		}
		if rounds != 1 || cells != want {
			t.Fatalf("%s: %d rounds, %d cells; want 1 round and the reference's %d cells", name, rounds, cells, want)
		}
		if written := stats.Get(telemetry.EntriesWritten) - before; written != int64(cells) {
			t.Errorf("%s: the round wrote %d entries for %d support cells", name, written, cells)
		}
	}
}

// TestKTrussBelowThreeKeepsEveryEdge: every graph is its own 2-truss,
// edges in no triangle included, though a support pass never reports
// those edges. An edge stored under both edge-band families is still 1.
func TestKTrussBelowThreeKeepsEveryEdge(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Barbell(4, 1))
	sch, err := schema.NewAdjacencySchema(conn, "K2")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	// Restate one edge under the unnamed family too.
	w, err := conn.CreateBatchWriter(sch.Table, accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat(schema.VertexName(0), "", schema.VertexName(1), 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	truss, _, err := KTruss(conn, sch.Table, 2, "K2scratch")
	if err != nil {
		t.Fatal(err)
	}
	got := assocMatrix(truss)
	want := algo.KTrussAdj(gen.AdjacencyPattern(g), 2)
	cells := 0
	for _, row := range got {
		cells += len(row)
	}
	if cells != want.NNZ() {
		t.Fatalf("2-truss has %d cells, reference %d", cells, want.NNZ())
	}
	for _, tr := range want.Triples() {
		if v := got[schema.VertexName(tr.Row)][schema.VertexName(tr.Col)]; v != 1 {
			t.Fatalf("cell (%d,%d) = %v, want 1", tr.Row, tr.Col, v)
		}
	}
}

// TestJaccardNumeratorReclaimed checks Jaccard leaves no table behind —
// neither a numerator nor a degree table — on success and on error.
func TestJaccardNumeratorReclaimed(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Complete(4))
	sch, err := schema.NewAdjacencySchema(conn, "JL")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	before := conn.TableOperations().List()
	if _, err := Jaccard(conn, sch.Table); err != nil {
		t.Fatal(err)
	}
	if after := conn.TableOperations().List(); !reflect.DeepEqual(after, before) {
		t.Fatalf("tables after Jaccard = %v, want %v", after, before)
	}
	// Error path: a missing adjacency table fails the first pass.
	if _, err := Jaccard(conn, "no-such-table"); err == nil {
		t.Fatal("Jaccard over a missing table succeeded")
	}
	if after := conn.TableOperations().List(); !reflect.DeepEqual(after, before) {
		t.Fatalf("tables after the failed Jaccard = %v, want %v", after, before)
	}
}

// TestTriangleScratchReclaimed checks TriangleCountTable leaves no
// table behind: the A² support streams to the client, so the table
// list is the same before and after the call.
func TestTriangleScratchReclaimed(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Complete(5))
	sch, err := schema.NewAdjacencySchema(conn, "TL")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	before := conn.TableOperations().List()
	n, err := TriangleCountTable(conn, sch.Table)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 { // C(5,3) triangles in K5
		t.Fatalf("triangles = %v, want 10", n)
	}
	if after := conn.TableOperations().List(); !reflect.DeepEqual(after, before) {
		t.Fatalf("tables after TriangleCountTable = %v, want %v", after, before)
	}
}

// TestCollectMonitorRejectsBadValue is the regression test for silently
// skipped monitoring entries: an undecodable count arriving at a plan's
// write sink must surface as an error instead of under-reporting. The
// step is built by hand (no RemoteWrite setting) so the scan serves the
// planted garbage directly as the sink's monitoring stream.
func TestCollectMonitorRejectsBadValue(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("Mon"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("Mon", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("t0", "", "count", skv.Value("not-a-number")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Kernel: "test", Step: plan.Step{
		Source: "Mon", Sink: plan.SinkWrite, OutTable: "MonOut",
		Semiring: "plus.times", Ops: []string{"scan Mon", "write MonOut"},
	}}
	env := plan.Env{Conn: conn}
	if _, err := p.Execute(env); err == nil {
		t.Fatal("undecodable monitoring entry not surfaced as an error")
	}
}

// TestTableMultCountsMemtableMerges: the kernel's fold generations
// into a fresh result table, and a shuffled client ingest of as many
// cells into another, each install as a few sorted segments per
// tablet, far below the memtable's segment cap, so memtable_merges
// stays 0 while both tables read back whole.
func TestTableMultCountsMemtableMerges(t *testing.T) {
	conn := testConn(t)
	stats := &conn.Cluster().Telemetry().Stats
	const n = 30 // one inner key: an n×n outer product, 900 result cells
	as, bs, ones := make([]string, n), make([]string, n), make([]float64, n)
	for i := range as {
		as[i], bs[i], ones[i] = fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i), 1
	}
	loadMatrix(t, conn, "ATi", []string{"i0"}, as, [][]float64{ones})
	loadMatrix(t, conn, "Bi", []string{"i0"}, bs, [][]float64{ones})
	before := stats.Get(telemetry.MemtableMerges)
	if _, err := TableMult(conn, "ATi", "Bi", "Ci", MultOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(telemetry.MemtableMerges); got != before {
		t.Fatalf("server-side TableMult merged %d memtable segments, want 0", got-before)
	}
	got := readMatrix(t, conn, "Ci")
	for _, a := range as {
		for _, b := range bs {
			if got[a][b] != 1 {
				t.Fatalf("C[%s][%s] = %v, want 1", a, b, got[a][b])
			}
		}
	}

	if err := conn.TableOperations().Create("Si"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("Si", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		if err := w.PutFloat(fmt.Sprintf("r%04d", i*7919%(n*n)), "", "q", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stats.Get(telemetry.MemtableMerges); got != before {
		t.Fatalf("shuffled ingest merged %d memtable segments, want 0", got-before)
	}
	if got := readMatrix(t, conn, "Si"); len(got) != n*n {
		t.Fatalf("shuffled ingest reads back %d rows, want %d", len(got), n*n)
	}
}
