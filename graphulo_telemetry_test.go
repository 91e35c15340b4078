package graphulo

// End-to-end telemetry tests: per-query stats must mirror the global
// counters on every transport, external-daemon traces must link their
// per-daemon spans under the coordinator query, and the HTTP endpoint
// must expose the metric families CI scrapes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphulo/internal/accumulo"
	"graphulo/internal/telemetry"
)

// buildBandedOperands creates pre-split operand tables AT and B for a
// banded multiply: inner-dimension rows r0..r7 across four tablets, AT
// giving every inner row the same two output rows (so the band's inner
// rows fold partial products per output cell), and B carrying three
// qualifiers per row so a column band prunes entries server-side.
func buildBandedOperands(t *testing.T, db *DB) {
	t.Helper()
	ops := db.Connector().TableOperations()
	splits := []string{"r2", "r4", "r6"}
	for _, name := range []string{"AT", "B"} {
		if err := ops.CreateWithSplits(name, splits); err != nil {
			t.Fatal(err)
		}
	}
	wAT, err := db.Connector().CreateBatchWriter("AT", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := db.Connector().CreateBatchWriter("B", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		row := fmt.Sprintf("r%d", i)
		for _, out := range []string{"u", "v"} {
			if err := wAT.PutFloat(row, "", out, 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{"ca", "cb", "cz"} {
			if err := wB.PutFloat(row, "", q, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wAT.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}
}

// bandedMultBand is the constraint the telemetry tests multiply under:
// inner rows [r2, r4) — two of the eight rows, pruning two of the four
// tablets of each operand — and output columns [ca, cb), pruning the
// cb/cz entries of the scanned B tablets server-side.
var bandedMultBand = ScanConstraint{
	RowStart: "r2", RowEnd: "r4",
	ColQStart: "ca", ColQEnd: "cb",
}

// mirroredCounters are the per-query counters that also have a global
// Metrics counterpart reachable through the public API; per-query and
// global-delta views of one isolated kernel call must agree exactly.
var mirroredCounters = []string{
	"wire_bytes", "rpcs", "entries_written", "entries_scanned",
	"tablet_scans", "tablets_pruned_by_range",
	"entries_pruned_by_range", "partial_products_folded",
}

// globalCounterView reads the global counters under the per-query
// counter names.
func globalCounterView(db *DB) map[string]int64 {
	wire, rpcs, written, scanned := db.Metrics()
	st := db.ScanMetrics()
	return map[string]int64{
		"wire_bytes":              wire,
		"rpcs":                    rpcs,
		"entries_written":         written,
		"entries_scanned":         scanned,
		"tablet_scans":            st.TabletScans,
		"tablets_pruned_by_range": st.TabletsPrunedByRange,
		"entries_pruned_by_range": st.EntriesPrunedByRange,
		"partial_products_folded": st.PartialProductsFolded,
	}
}

// TestQueryStatsMatchGlobalMetricsThreeWay runs the banded TableMult on
// inproc, tcp, and external-daemon deployments. On each, the kernel's
// per-query counters must equal the global Metrics deltas across the
// call — the per-query stats are a mirror, not an estimate — and the
// work counters (pruning, folds, scans) must agree across deployments:
// satellite regression for daemon-side counters reaching the
// coordinator under -transport tcp -servers.
func TestQueryStatsMatchGlobalMetricsThreeWay(t *testing.T) {
	type work struct {
		Written  int
		Counters map[string]int64
	}
	results := runThreeWay(t, func(t *testing.T, db *DB) work {
		buildBandedOperands(t, db)
		before := globalCounterView(db)
		written, err := db.TableMultOpts("AT", "B", "C", MultOptions{Constraint: bandedMultBand})
		if err != nil {
			t.Fatal(err)
		}
		after := globalCounterView(db)

		stats := db.QueryStats()
		if len(stats) == 0 {
			t.Fatal("no query records after TableMult")
		}
		q := stats[0] // newest first
		if q.Kernel != "TableMult" {
			t.Fatalf("newest query kernel = %q, want TableMult", q.Kernel)
		}
		if !q.Done || q.Err != "" {
			t.Fatalf("query not finished cleanly: done=%v err=%q", q.Done, q.Err)
		}
		if q.TraceID == "" || q.TraceID == "0000000000000000" {
			t.Fatalf("query has no trace id: %q", q.TraceID)
		}
		for _, name := range mirroredCounters {
			delta := after[name] - before[name]
			if got := q.Counters[name]; got != delta {
				t.Errorf("counter %s: per-query %d != global delta %d", name, got, delta)
			}
		}
		if q.ScanPasses == 0 {
			t.Error("query recorded no scan-pass latencies")
		}
		if q.ScanPassP99 <= 0 {
			t.Errorf("scan-pass p99 = %v, want > 0", q.ScanPassP99)
		}
		// Work counters are deployment-invariant; wire counters are not
		// (frame layout differs per transport), so compare only these.
		invariant := map[string]int64{}
		for _, name := range []string{
			"tablet_scans", "tablets_pruned_by_range",
			"entries_pruned_by_range", "partial_products_folded",
			"entries_written", "scans_started",
		} {
			invariant[name] = q.Counters[name]
		}
		return work{Written: written, Counters: invariant}
	})
	base := results["inproc"]
	if base.Counters["tablets_pruned_by_range"] == 0 {
		t.Error("band pruned no tablets — the test band should skip tablets")
	}
	if base.Counters["entries_pruned_by_range"] == 0 {
		t.Error("column band pruned no entries")
	}
	if base.Counters["partial_products_folded"] == 0 {
		t.Error("pre-aggregation folded nothing")
	}
	requireAgreement(t, results)
}

// queriesPayload mirrors the /queries JSON shape.
type queriesPayload struct {
	Host    string `json:"host"`
	Queries []struct {
		Trace  string           `json:"trace"`
		Kernel string           `json:"kernel"`
		Done   bool             `json:"done"`
		Stats  map[string]int64 `json:"stats"`
		Spans  []struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Host   string `json:"host"`
		} `json:"spans"`
	} `json:"queries"`
}

// TestExternalTraceSpanLinkage is the tentpole acceptance test: a
// banded TableMult against standalone daemons over TCP must produce a
// single trace whose span tree contains the coordinator's kernel spans
// AND the per-daemon tablet passes, with every child's parent resolving
// inside the trace — served over the /queries endpoint.
func TestExternalTraceSpanLinkage(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	db, err := Open(ClusterConfig{Servers: addrs, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buildBandedOperands(t, db)
	if _, err := db.TableMultOpts("AT", "B", "C", MultOptions{Constraint: bandedMultBand}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + db.MetricsAddr() + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload queriesPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, q := range payload.Queries {
		if q.Kernel == "TableMult" {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("/queries has no TableMult record: %+v", payload)
	}
	q := payload.Queries[idx]
	if !q.Done {
		t.Error("TableMult query not marked done")
	}
	if q.Trace == "" {
		t.Error("TableMult query has no trace id")
	}

	ids := map[uint64]bool{}
	for _, s := range q.Spans {
		ids[s.ID] = true
	}
	hosts := map[string]bool{}
	roots, daemonPasses := 0, 0
	for _, s := range q.Spans {
		hosts[s.Host] = true
		if s.Parent == 0 {
			roots++
			continue
		}
		if !ids[s.Parent] {
			t.Errorf("span %q (id %d) has dangling parent %d", s.Name, s.ID, s.Parent)
		}
		if strings.HasPrefix(s.Name, "pass ") && s.Host != payload.Host {
			daemonPasses++
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d root spans, want exactly 1", roots)
	}
	if daemonPasses == 0 {
		t.Error("no per-daemon tablet-pass spans linked into the coordinator trace")
	}
	if len(hosts) < 2 {
		t.Errorf("trace spans cover hosts %v, want coordinator plus at least one daemon", hosts)
	}
	for _, counter := range []string{"tablet_scans", "entries_written", "partial_products_folded"} {
		if q.Stats[counter] == 0 {
			t.Errorf("per-query counter %s is zero in /queries", counter)
		}
	}
}

// TestMetricsEndpointAndSlowQueryLog scrapes /metrics from a durable
// coordinator after a kernel run, asserting the histogram families CI
// greps for (TestMetricsFamilies pins the counter families), and checks the slow-query log receives a
// structured line when the threshold is sub-microsecond.
func TestMetricsEndpointAndSlowQueryLog(t *testing.T) {
	var slow bytes.Buffer
	db, err := Open(ClusterConfig{
		DataDir:            t.TempDir(),
		MetricsAddr:        "127.0.0.1:0",
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buildBandedOperands(t, db)
	if _, err := db.TableMultOpts("AT", "B", "C", MultOptions{Constraint: bandedMultBand}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + db.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"# TYPE graphulo_scan_pass_seconds histogram",
		"graphulo_scan_pass_seconds_bucket{le=\"+Inf\"}",
		"# TYPE graphulo_write_batch_seconds histogram",
		"# TYPE graphulo_wal_sync_seconds histogram",
		"# TYPE graphulo_kernel_seconds histogram",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// The durable cluster synced its WAL at least once during ingest.
	if !strings.Contains(text, "graphulo_wal_sync_seconds_count") {
		t.Error("/metrics missing WAL sync histogram count")
	}

	var line struct {
		Kernel string `json:"kernel"`
		Trace  string `json:"trace"`
	}
	if err := json.Unmarshal(bytes.Split(slow.Bytes(), []byte("\n"))[0], &line); err != nil {
		t.Fatalf("slow-query log line is not JSON: %v (log: %q)", err, slow.String())
	}
	if line.Kernel == "" || line.Trace == "" {
		t.Errorf("slow-query line lacks kernel/trace: %+v", line)
	}
}

// scrapeFamilies returns the family name → TYPE map of a /metrics page.
func scrapeFamilies(t *testing.T, addr string) map[string]string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			families[f[2]] = f[3]
		}
	}
	return families
}

// TestMetricsFamilies pins the /metrics family set of a coordinator and
// of a standalone tablet server. Every family either process served
// before the counter table existed is still served by it under the same
// TYPE; a standalone server now also serves the storage counters (its
// table is the coordinator's); the admission gauges stay coordinator-only
// (only it has a scheduler to read); and the only new names are the three
// counters that used to exist per query alone.
func TestMetricsFamilies(t *testing.T) {
	both := map[string]string{
		"wire_bytes_total": "counter", "rpcs_total": "counter",
		"entries_written_total": "counter", "entries_scanned_total": "counter",
		"scans_started_total": "counter", "tablet_scans_total": "counter",
		"tablets_pruned_by_range_total": "counter", "entries_pruned_by_range_total": "counter",
		"partial_products_folded_total": "counter", "scratch_tables_created_total": "counter",
		"major_compactions_total": "counter", "major_compaction_errors_total": "counter",
		"scans_in_flight": "gauge", "max_scans_in_flight": "gauge",
		"entries_buffered": "gauge", "max_entries_buffered": "gauge",
		"memtable_freezes_total": "counter", "memtable_merges_total": "counter", "write_stall_nanos_total": "counter",
		"queries_total":     "counter",
		"scan_pass_seconds": "histogram", "write_batch_seconds": "histogram",
		"wal_sync_seconds": "histogram", "kernel_seconds": "histogram",
		"queue_wait_seconds": "histogram",
		// New on /metrics: per-query-only before.
		"write_wire_bytes_total": "counter",
		"queue_wait_nanos_total": "counter",
		// New on a standalone server.
		"cache_hits_total": "counter", "cache_misses_total": "counter",
		"bloom_negatives_total": "counter", "colq_bloom_negatives_total": "counter",
		"locality_blocks_skipped_total": "counter",
	}
	coordinatorOnly := map[string]string{
		"queries_running": "gauge", "queries_queued": "gauge",
		"tenant_queries_total": "counter", "tenant_entries_scanned_total": "counter",
		"tenant_entries_written_total": "counter", "tenant_queue_wait_nanos_total": "counter",
	}
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if name := c.String(); both[name] == "" && both[name+"_total"] == "" && coordinatorOnly[name] == "" {
			t.Errorf("declared counter %s is pinned for neither process", name)
		}
	}
	check := func(who string, got map[string]string, wants ...map[string]string) {
		t.Helper()
		want := map[string]string{}
		for _, w := range wants {
			for name, typ := range w {
				want["graphulo_"+name] = typ
			}
		}
		for name, typ := range want {
			if got[name] != typ {
				t.Errorf("%s: family %s has TYPE %q, want %q", who, name, got[name], typ)
			}
		}
		for name := range got {
			if want[name] == "" {
				t.Errorf("%s: unexpected family %s", who, name)
			}
		}
	}

	db, err := Open(ClusterConfig{MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// The tenant families appear once a kernel query has finished.
	_, finish, err := db.Connector().Cluster().StartKernelQuery("k", "")
	if err != nil {
		t.Fatal(err)
	}
	finish(nil)
	check("coordinator", scrapeFamilies(t, db.MetricsAddr()), both, coordinatorOnly)

	srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.StartTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	check("standalone", scrapeFamilies(t, addr), both)
}

// TestGraphCallIsOneQuery: every TableGraph kernel call is exactly one
// finished query record, on every transport, and a result the client
// reads streams back instead of passing through a table. Degrees,
// Jaccard and TriangleCount write nothing; KTruss writes only its
// rounds' support cells into the round tables (Barbell(4,1) at k = 4:
// one round whose support covers the 24 directed edges of its two
// K4s, the bridge being in no triangle; the graph table is one tablet,
// so the fold stage writes each cell once); no call changes the table
// list; PageRank's one scratch table is its rank vector, and it writes
// that vector once per iteration, one entry per vertex with an edge,
// and nothing else.
func TestGraphCallIsOneQuery(t *testing.T) {
	type record struct {
		Kernel   string
		Written  int64
		Scratch  int64
		Finished bool
	}
	results := runThreeWay(t, func(t *testing.T, db *DB) map[string]record {
		tg, err := db.CreateGraph("G")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Ingest(planTestGraph()); err != nil {
			t.Fatal(err)
		}
		out := map[string]record{}
		var vertices, iterations int
		for _, call := range []struct {
			name string
			run  func() error
		}{
			{"Degrees", func() error { d, err := tg.Degrees(); vertices = len(d); return err }},
			{"Jaccard", func() error { _, err := tg.Jaccard(); return err }},
			{"KTruss", func() error { _, err := tg.KTruss(4); return err }},
			{"TriangleCount", func() error { _, err := tg.TriangleCount(); return err }},
			{"PageRank", func() error { _, n, err := tg.PageRank(0.15, 1e-9, 50); iterations = n; return err }},
		} {
			seen := map[string]bool{}
			for _, q := range db.QueryStats() {
				seen[q.TraceID] = true
			}
			tables := listTables(db)
			scratch := db.ScanMetrics().ScratchTablesCreated
			if err := call.run(); err != nil {
				t.Fatalf("%s: %v", call.name, err)
			}
			var fresh []QueryStats
			for _, q := range db.QueryStats() {
				if !seen[q.TraceID] {
					fresh = append(fresh, q)
				}
			}
			if len(fresh) != 1 {
				kernels := make([]string, len(fresh))
				for i, q := range fresh {
					kernels[i] = q.Kernel
				}
				t.Fatalf("%s added %d query records %v, want 1", call.name, len(fresh), kernels)
			}
			if after := listTables(db); !reflect.DeepEqual(after, tables) {
				t.Errorf("%s changed the table list: %v, was %v", call.name, after, tables)
			}
			q := fresh[0]
			out[call.name] = record{
				Kernel:   q.Kernel,
				Written:  q.Counters["entries_written"],
				Scratch:  db.ScanMetrics().ScratchTablesCreated - scratch,
				Finished: q.Done && q.Err == "",
			}
		}
		if w, want := out["PageRank"].Written, int64(iterations*vertices); w != want {
			t.Errorf("PageRank recorded entries_written %d, want %d (%d iterations × %d vertices)", w, want, iterations, vertices)
		}
		return out
	})
	requireAgreement(t, results)
	for name, r := range results["inproc"] {
		if !r.Finished {
			t.Errorf("%s: query record not finished cleanly", name)
		}
	}
	for _, name := range []string{"Degrees", "Jaccard", "TriangleCount"} {
		if w := results["inproc"][name].Written; w != 0 {
			t.Errorf("%s recorded entries_written %d, want 0", name, w)
		}
	}
	if w := results["inproc"]["KTruss"].Written; w != 24 {
		t.Errorf("KTruss recorded entries_written %d, want 24 (one round's support cells)", w)
	}
	if s := results["inproc"]["PageRank"].Scratch; s != 1 {
		t.Errorf("PageRank created %d scratch tables, want 1 (the rank vector)", s)
	}
}
