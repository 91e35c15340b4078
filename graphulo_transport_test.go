package graphulo

import (
	"reflect"
	"testing"
)

// TestClusterTransportsProduceIdenticalResults drives the public API —
// graph ingest, BFS, degrees, triangle count — over both transports and
// over standalone tablet servers, demanding identical answers. This is
// the equivalence claim at the surface users touch.
func TestClusterTransportsProduceIdenticalResults(t *testing.T) {
	g := PaperGraph()
	type result struct {
		bfs       map[string]int
		degrees   map[string]float64
		triangles float64
	}
	run := func(t *testing.T, cfg ClusterConfig) result {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		tg, err := db.CreateGraph("G")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Ingest(g); err != nil {
			t.Fatal(err)
		}
		var res result
		if res.bfs, err = tg.BFS([]int{1}, 2); err != nil {
			t.Fatal(err)
		}
		if res.degrees, err = tg.Degrees(); err != nil {
			t.Fatal(err)
		}
		if res.triangles, err = tg.TriangleCount(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	configs := map[string]ClusterConfig{
		"inproc": {Transport: "inproc"},
		"tcp":    {Transport: "tcp"},
	}
	// Standalone tablet servers, as `graphulo serve` would run them.
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	configs["external"] = ClusterConfig{Servers: addrs}

	results := map[string]result{}
	for name, cfg := range configs {
		results[name] = run(t, cfg)
	}
	base := results["inproc"]
	if len(base.bfs) == 0 || len(base.degrees) == 0 || base.triangles == 0 {
		t.Fatalf("inproc run produced empty results: %+v", base)
	}
	for name, res := range results {
		if !reflect.DeepEqual(res, base) {
			t.Errorf("%s results differ from inproc:\n%s: %+v\ninproc: %+v", name, name, res, base)
		}
	}
}

// TestKernelMetricsDeltasEqualThreeWay: one TableMult, one kTruss and
// one degree-filtered BFS move DB.Metrics() and DB.ScanMetrics() by the
// same amounts whether the coordinator launched its tablet servers
// (inproc, tcp) or dialed standalone ones — a launched server counts
// into the coordinator's Metrics directly, a standalone one through its
// pass trailers, and the two must add up alike. Wire bytes are left out:
// they include the trailers' spans (random ids, wall-clock durations)
// and the varint stamps of per-server clocks. So are the gauges and
// high-water marks, which depend on timing.
func TestKernelMetricsDeltasEqualThreeWay(t *testing.T) {
	graph := planTestGraph()
	view := func(db *DB) map[string]int64 {
		_, rpcs, written, scanned := db.Metrics()
		st := db.ScanMetrics()
		return map[string]int64{
			"rpcs":                    rpcs,
			"entries_written":         written,
			"entries_scanned":         scanned,
			"tablet_scans":            st.TabletScans,
			"tablets_pruned_by_range": st.TabletsPrunedByRange,
			"entries_pruned_by_range": st.EntriesPrunedByRange,
			"partial_products_folded": st.PartialProductsFolded,
			"scratch_tables_created":  st.ScratchTablesCreated,
		}
	}
	results := runThreeWay(t, func(t *testing.T, db *DB) map[string]map[string]int64 {
		tg, err := db.CreateGraph("G")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Ingest(graph); err != nil {
			t.Fatal(err)
		}
		a, at, _ := tg.Tables()
		deltas := map[string]map[string]int64{}
		for _, k := range []struct {
			name string
			run  func() error
		}{
			{"TableMult", func() error { _, err := db.TableMult(at, a, "C", "plus.times"); return err }},
			{"kTruss", func() error { _, err := tg.KTruss(4); return err }},
			{"BFSFiltered", func() error { _, err := tg.BFSFiltered([]int{0}, 3, 2, 0); return err }},
		} {
			before := view(db)
			if err := k.run(); err != nil {
				t.Fatalf("%s: %v", k.name, err)
			}
			delta := view(db)
			for name, v := range before {
				delta[name] -= v
			}
			if delta["rpcs"] == 0 || delta["tablet_scans"] == 0 {
				t.Fatalf("%s moved no counters: %v", k.name, delta)
			}
			deltas[k.name] = delta
		}
		return deltas
	})
	requireAgreement(t, results)
}
