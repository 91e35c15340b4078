package graphulo

import (
	"reflect"
	"testing"
)

// The acceptance contract for the durable storage engine: a TableGraph
// ingested with DataDir set survives process restart. Reopening the
// same directory — without any clean shutdown, so recovery runs off
// manifest + WAL replay — must recover all tables and splits and give
// identical BFS, Degrees, and TriangleCount results.
func TestDurableTableGraphSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	graph := DedupGraph(RMAT(Graph500(6, 3)))

	db, err := Open(ClusterConfig{TabletServers: 2, MemLimit: 128, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	wantBFS, err := tg.BFS([]int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantDeg, err := tg.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	wantTri, err := tg.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	wantTables := db.Connector().TableOperations().List()
	// Unclean shutdown: drop the handle without Close. Acknowledged
	// writes must be recoverable from manifest + WAL alone.

	db2, err := Open(ClusterConfig{TabletServers: 2, MemLimit: 128, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	gotTables := db2.Connector().TableOperations().List()
	if want := []string{"G", "GDeg"}; !reflect.DeepEqual(wantTables, want) || !reflect.DeepEqual(gotTables, want) {
		t.Fatalf("tables %v before restart, %v after; want exactly %v", wantTables, gotTables, want)
	}
	tg2, err := db2.OpenGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	gotBFS, err := tg2.BFS([]int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotBFS) != len(wantBFS) {
		t.Fatalf("BFS visited %d vertices after restart, want %d", len(gotBFS), len(wantBFS))
	}
	for k, lvl := range wantBFS {
		if gotBFS[k] != lvl {
			t.Fatalf("BFS level of %s = %d after restart, want %d", k, gotBFS[k], lvl)
		}
	}
	gotDeg, err := tg2.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotDeg) != len(wantDeg) {
		t.Fatalf("Degrees has %d vertices after restart, want %d", len(gotDeg), len(wantDeg))
	}
	for k, d := range wantDeg {
		if gotDeg[k] != d {
			t.Fatalf("degree of %s = %v after restart, want %v", k, gotDeg[k], d)
		}
	}
	gotTri, err := tg2.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	if gotTri != wantTri {
		t.Fatalf("TriangleCount = %v after restart, want %v", gotTri, wantTri)
	}
}

// A durable graph built and cleanly closed in one "process" is fully
// queryable in the next without re-ingest (the cmd/graphulo --data-dir
// workflow).
func TestDurableBuildThenQueryWorkflow(t *testing.T) {
	dir := t.TempDir()
	graph := PaperGraph()

	db, err := Open(ClusterConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	adjBefore, err := db.ReadAssoc("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(ClusterConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.OpenGraph("G"); err != nil {
		t.Fatal(err)
	}
	adjAfter, err := db2.ReadAssoc("G")
	if err != nil {
		t.Fatal(err)
	}
	if adjBefore.NNZ() == 0 || adjBefore.NNZ() != adjAfter.NNZ() {
		t.Fatalf("adjacency NNZ %d -> %d across restart", adjBefore.NNZ(), adjAfter.NNZ())
	}
	for _, e := range adjBefore.Entries() {
		if adjAfter.At(e.Row, e.Col) != e.Val {
			t.Fatalf("edge (%s,%s) = %v after restart, want %v",
				e.Row, e.Col, adjAfter.At(e.Row, e.Col), e.Val)
		}
	}
	// OpenGraph on a graph that never existed must fail loudly.
	if _, err := db2.OpenGraph("nope"); err == nil {
		t.Fatal("OpenGraph on missing graph succeeded")
	}
}
