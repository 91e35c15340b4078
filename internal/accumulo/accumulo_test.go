package accumulo

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

func newTestCluster(t *testing.T) *Connector {
	t.Helper()
	return NewMiniCluster(Config{TabletServers: 3, MemLimit: 64, WireBatch: 32}).Connector()
}

func mustCreate(t *testing.T, c *Connector, name string, splits ...string) {
	t.Helper()
	if err := c.TableOperations().CreateWithSplits(name, splits); err != nil {
		t.Fatal(err)
	}
}

func writeCells(t *testing.T, c *Connector, table string, cells map[string]float64) {
	t.Helper()
	w, err := c.CreateBatchWriter(table, BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var row, cq string
		fmt.Sscanf(k, "%s %s", &row, &cq)
		if err := w.PutFloat(row, "", cq, cells[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func scanFloats(t *testing.T, c *Connector, table string) map[string]float64 {
	t.Helper()
	s, err := c.CreateScanner(table)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, e := range entries {
		v, _ := skv.DecodeFloat(e.V)
		out[e.K.Row+" "+e.K.ColQ] = v
	}
	return out
}

func TestCreateDeleteListExists(t *testing.T) {
	c := newTestCluster(t)
	ops := c.TableOperations()
	mustCreate(t, c, "A")
	mustCreate(t, c, "B")
	if !ops.Exists("A") || ops.Exists("Z") {
		t.Fatalf("Exists wrong")
	}
	if got := ops.List(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("List = %v", got)
	}
	if err := ops.Create("A"); err == nil {
		t.Fatalf("duplicate create should fail")
	}
	if err := ops.Delete("A"); err != nil {
		t.Fatal(err)
	}
	if ops.Exists("A") {
		t.Fatalf("delete did not remove table")
	}
	if err := ops.Delete("A"); err == nil {
		t.Fatalf("double delete should fail")
	}
}

func TestWriteScanRoundTrip(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	writeCells(t, c, "T", map[string]float64{
		"r1 c1": 1, "r1 c2": 2, "r2 c1": 3,
	})
	got := scanFloats(t, c, "T")
	if len(got) != 3 || got["r1 c1"] != 1 || got["r2 c1"] != 3 {
		t.Fatalf("scan = %v", got)
	}
}

func TestScanIsSorted(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T", "m")
	w, _ := c.CreateBatchWriter("T", BatchWriterConfig{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		w.PutFloat(fmt.Sprintf("r%03d", rng.Intn(200)), "", fmt.Sprintf("c%d", rng.Intn(5)), 1)
	}
	w.Close()
	s, _ := c.CreateScanner("T")
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(entries); i++ {
		if skv.Compare(entries[i].K, entries[i+1].K) > 0 {
			t.Fatalf("scan unsorted at %d", i)
		}
	}
}

func TestVersioningDefaultKeepsNewest(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	w, _ := c.CreateBatchWriter("T", BatchWriterConfig{})
	w.PutFloat("r", "", "c", 1)
	w.Flush()
	w.PutFloat("r", "", "c", 2)
	w.Close()
	got := scanFloats(t, c, "T")
	if len(got) != 1 || got["r c"] != 2 {
		t.Fatalf("versioning should keep only newest: %v", got)
	}
}

func TestSummingCombinerAcrossWritesAndCompactions(t *testing.T) {
	c := newTestCluster(t)
	ops := c.TableOperations()
	mustCreate(t, c, "T")
	// Replace default versioning semantics with summing at every scope.
	if err := ops.RemoveIterator("T", "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("T", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	w, _ := c.CreateBatchWriter("T", BatchWriterConfig{})
	for i := 0; i < 10; i++ {
		w.PutFloat("r", "", "c", 1)
		w.Flush()
	}
	w.Close()
	got := scanFloats(t, c, "T")
	if got["r c"] != 10 {
		t.Fatalf("sum at scan = %v, want 10", got["r c"])
	}
	// The sum must survive a major compaction (applied at majc scope).
	if err := ops.Compact("T"); err != nil {
		t.Fatal(err)
	}
	got = scanFloats(t, c, "T")
	if got["r c"] != 10 {
		t.Fatalf("sum after compaction = %v, want 10", got["r c"])
	}
	if n, _ := ops.EntryEstimate("T"); n != 1 {
		t.Fatalf("compaction should collapse to 1 entry, estimate %d", n)
	}
}

func TestRangeScan(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T", "g", "p")
	writeCells(t, c, "T", map[string]float64{
		"alpha x": 1, "gamma x": 2, "omega x": 3, "zeta x": 4,
	})
	s, _ := c.CreateScanner("T")
	s.SetRange(skv.RowRange("g", "p"))
	entries, _ := s.Entries()
	if len(entries) != 2 || entries[0].K.Row != "gamma" || entries[1].K.Row != "omega" {
		t.Fatalf("range scan wrong: %v", entries)
	}
}

func TestSplitsRouteAndScanAcrossTablets(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T", "h", "q")
	cells := map[string]float64{}
	for i := 0; i < 100; i++ {
		cells[fmt.Sprintf("%c%02d x", 'a'+i%26, i)] = float64(i)
	}
	writeCells(t, c, "T", cells)
	got := scanFloats(t, c, "T")
	if len(got) != len(cells) {
		t.Fatalf("lost cells across tablets: %d vs %d", len(got), len(cells))
	}
}

func TestAddSplitsAfterData(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	cells := map[string]float64{}
	for i := 0; i < 60; i++ {
		cells[fmt.Sprintf("r%02d x", i)] = float64(i)
	}
	writeCells(t, c, "T", cells)
	ops := c.TableOperations()
	if err := ops.AddSplits("T", []string{"r20", "r40"}); err != nil {
		t.Fatal(err)
	}
	sp, _ := ops.Splits("T")
	if len(sp) != 2 || sp[0] != "r20" || sp[1] != "r40" {
		t.Fatalf("splits = %v", sp)
	}
	got := scanFloats(t, c, "T")
	if len(got) != len(cells) {
		t.Fatalf("split lost data: %d vs %d", len(got), len(cells))
	}
	// Adding an existing split is a no-op.
	if err := ops.AddSplits("T", []string{"r20"}); err != nil {
		t.Fatal(err)
	}
}

func TestPerScanIterator(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	writeCells(t, c, "T", map[string]float64{"a x": 2, "b x": 5, "c x": 2})
	s, _ := c.CreateScanner("T")
	s.AddScanIterator(iterator.Setting{Name: "equalsIndicator", Priority: 30,
		Opts: map[string]string{"target": "2"}})
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("per-scan filter wrong: %d entries", len(entries))
	}
}

// A covering three-range partition of a split table, scanned as one
// multi-range Scanner, returns every cell once and in key order.
func TestBatchScannerParallelRanges(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T", "d", "h", "m")
	cells := map[string]float64{}
	for i := 0; i < 200; i++ {
		cells[fmt.Sprintf("%c%03d x", 'a'+i%20, i)] = 1
	}
	writeCells(t, c, "T", cells)
	s, err := c.CreateScanner("T")
	if err != nil {
		t.Fatal(err)
	}
	s.SetRanges([]skv.Range{
		skv.RowRange("", "f"), skv.RowRange("f", "k"), skv.RowRange("k", ""),
	})
	entries, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(cells) {
		t.Fatalf("multi-range scan lost data: %d vs %d", len(entries), len(cells))
	}
	for i := 0; i+1 < len(entries); i++ {
		if skv.Compare(entries[i].K, entries[i+1].K) >= 0 {
			t.Fatalf("entries %d and %d out of key order", i, i+1)
		}
	}
}

func TestBatchWriterRetriesTransientFailures(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	w, _ := c.CreateBatchWriter("T", BatchWriterConfig{MaxRetries: 5})
	w.PutFloat("r", "", "c", 7)
	c.Cluster().InjectWriteFailures(2)
	if err := w.Flush(); err != nil {
		t.Fatalf("retry should absorb 2 failures: %v", err)
	}
	if got := scanFloats(t, c, "T"); got["r c"] != 7 {
		t.Fatalf("write lost after retries: %v", got)
	}
}

func TestBatchWriterGivesUpAfterMaxRetries(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	w, _ := c.CreateBatchWriter("T", BatchWriterConfig{MaxRetries: 2})
	w.PutFloat("r", "", "c", 7)
	c.Cluster().InjectWriteFailures(100)
	if err := w.Flush(); err == nil {
		t.Fatalf("expected give-up error")
	}
	c.Cluster().InjectWriteFailures(0)
}

func TestAttachIteratorValidation(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	ops := c.TableOperations()
	if err := ops.AttachIterator("T", iterator.Setting{Name: "nosuch", Priority: 9}); err == nil {
		t.Fatalf("unknown iterator must be rejected")
	}
	if err := ops.AttachIterator("T", iterator.Setting{Name: "sum", Priority: 20}); err == nil {
		t.Fatalf("priority collision with versioning(20) must be rejected")
	}
	if err := ops.AttachIterator("T", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestEnsureCombiner pins EnsureCombiner's four outcomes on a durable
// cluster: an absent table is created summing at every scope, a
// versioning-only table is upgraded in place, a table with another
// combiner is refused and left untouched, and a table that already
// sums is left alone — no topology change and no manifest write. The
// created and the upgraded stacks survive a reopen.
func TestEnsureCombiner(t *testing.T) {
	dir := t.TempDir()
	mc := openDurable(t, dir)
	conn := mc.Connector()
	ops := conn.TableOperations()
	manifest := func() string {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		return string(b)
	}
	stacks := func(ops *TableOperations, table string) map[Scope][]string {
		t.Helper()
		out := map[Scope][]string{}
		for _, s := range AllScopes {
			settings, err := ops.IteratorSettings(table, s)
			if err != nil {
				t.Fatal(err)
			}
			for _, it := range settings {
				out[s] = append(out[s], it.Name)
			}
		}
		return out
	}
	sumEverywhere := map[Scope][]string{ScanScope: {"sum"}, MincScope: {"sum"}, MajcScope: {"sum"}}
	ensure := func(table string, wantErr bool, wantBump uint64) {
		t.Helper()
		v, m := mc.metaVersion.Load(), manifest()
		err := ops.EnsureCombiner(table, "sum")
		if (err != nil) != wantErr {
			t.Fatalf("EnsureCombiner(%q): err = %v, want error %v", table, err, wantErr)
		}
		if bump := mc.metaVersion.Load() - v; bump != wantBump {
			t.Errorf("EnsureCombiner(%q) moved metaVersion by %d, want %d", table, bump, wantBump)
		}
		if changed := manifest() != m; changed != (wantBump == 1) {
			t.Errorf("EnsureCombiner(%q) rewrote the manifest: %v, want %v", table, changed, wantBump == 1)
		}
	}

	ensure("New", false, 1)
	if got := stacks(ops, "New"); !reflect.DeepEqual(got, sumEverywhere) {
		t.Errorf("created stacks = %v, want %v", got, sumEverywhere)
	}

	mustCreate(t, conn, "Plain")
	ensure("Plain", false, 1)
	if got := stacks(ops, "Plain"); !reflect.DeepEqual(got, sumEverywhere) {
		t.Errorf("upgraded stacks = %v, want %v", got, sumEverywhere)
	}

	mustCreate(t, conn, "Min")
	if err := ops.RemoveIterator("Min", "versioning", MajcScope); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("Min", iterator.Setting{Name: "min", Priority: 10}, MajcScope); err != nil {
		t.Fatal(err)
	}
	before := stacks(ops, "Min")
	ensure("Min", true, 0)
	if got := stacks(ops, "Min"); !reflect.DeepEqual(got, before) {
		t.Errorf("refused table's stacks = %v, want them untouched: %v", got, before)
	}

	ensure("New", false, 0)
	ensure("Plain", false, 0)

	if err := ops.EnsureCombiner("Versioned", "versioning"); err == nil || ops.Exists("Versioned") {
		t.Errorf("EnsureCombiner with a non-combiner: err = %v, table made = %v", err, ops.Exists("Versioned"))
	}

	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	mc2 := openDurable(t, dir)
	defer mc2.Close()
	for _, table := range []string{"New", "Plain"} {
		if got := stacks(mc2.Connector().TableOperations(), table); !reflect.DeepEqual(got, sumEverywhere) {
			t.Errorf("%s after reopen: stacks = %v, want %v", table, got, sumEverywhere)
		}
	}
}

// TestScanScopeThresholdSeesWholeSums: a table summing at every scope
// with a threshold at scan scope only — a kTruss round table — reads
// the thresholded total, however its partial sums are spread over runs.
// The first half is flushed and compacted before the second is written,
// so a threshold that a flush or compaction applied would drop a's and
// p's first halves (1 < 2) and lose both cells. Both arms: in memory
// and on a data directory.
func TestScanScopeThresholdSeesWholeSums(t *testing.T) {
	for arm, cfg := range map[string]Config{
		"memory":  {TabletServers: 2, MemLimit: 64, WireBatch: 32},
		"durable": {TabletServers: 2, MemLimit: 64, WireBatch: 32, DataDir: t.TempDir()},
	} {
		t.Run(arm, func(t *testing.T) {
			mc, err := OpenMiniCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			c := mc.Connector()
			ops := c.TableOperations()
			mustCreate(t, c, "S", "m")
			if err := ops.EnsureCombiner("S", "sum"); err != nil {
				t.Fatal(err)
			}
			threshold := iterator.Setting{Name: "threshold", Priority: 20, Opts: map[string]string{"min": "2"}}
			if err := ops.AttachIterator("S", threshold, ScanScope); err != nil {
				t.Fatal(err)
			}
			writeCells(t, c, "S", map[string]float64{"a x": 1, "b x": 1, "n x": 3, "p x": 1})
			if err := ops.Flush("S"); err != nil {
				t.Fatal(err)
			}
			if err := ops.Compact("S"); err != nil {
				t.Fatal(err)
			}
			if got, want := scanFloats(t, c, "S"), map[string]float64{"n x": 3}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after the first half: %v, want %v", got, want)
			}
			writeCells(t, c, "S", map[string]float64{"a x": 1, "p x": 1, "q x": 1})
			want := map[string]float64{"a x": 2, "n x": 3, "p x": 2}
			if got := scanFloats(t, c, "S"); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the second half: %v, want %v", got, want)
			}
			if err := ops.Flush("S"); err != nil {
				t.Fatal(err)
			}
			if err := ops.Compact("S"); err != nil {
				t.Fatal(err)
			}
			if got := scanFloats(t, c, "S"); !reflect.DeepEqual(got, want) {
				t.Fatalf("after a second flush and compaction: %v, want %v", got, want)
			}
		})
	}
}

func TestScannerOnMissingTable(t *testing.T) {
	c := newTestCluster(t)
	if _, err := c.CreateScanner("nope"); err == nil {
		t.Fatalf("expected error")
	}
	if _, err := c.CreateBatchWriter("nope", BatchWriterConfig{}); err == nil {
		t.Fatalf("expected error")
	}
}

func TestMetricsAccumulate(t *testing.T) {
	c := newTestCluster(t)
	mustCreate(t, c, "T")
	writeCells(t, c, "T", map[string]float64{"a x": 1, "b y": 2})
	scanFloats(t, c, "T")
	m := &c.Cluster().Telemetry().Stats
	if m.Get(telemetry.WireBytes) == 0 || m.Get(telemetry.RPCs) == 0 ||
		m.Get(telemetry.EntriesWritten) != 2 || m.Get(telemetry.EntriesScanned) != 2 {
		t.Fatalf("metrics: wire=%d rpc=%d w=%d s=%d",
			m.Get(telemetry.WireBytes), m.Get(telemetry.RPCs), m.Get(telemetry.EntriesWritten), m.Get(telemetry.EntriesScanned))
	}
}

// Integration: the full Graphulo server-side multiply machinery through
// table scan configuration (TwoTableIterator + RemoteWriteIterator).
func TestServerSideMultiplyPipeline(t *testing.T) {
	c := newTestCluster(t)
	// AT holds Aᵀ; B holds B; C receives partial products with a sum.
	mustCreate(t, c, "AT")
	mustCreate(t, c, "B")
	mustCreate(t, c, "C")
	ops := c.TableOperations()
	if err := ops.RemoveIterator("C", "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("C", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	// A = [1 2; 3 4] (rows a0,a1 × inner i0,i1), stored transposed.
	wa, _ := c.CreateBatchWriter("AT", BatchWriterConfig{})
	wa.PutFloat("i0", "", "a0", 1)
	wa.PutFloat("i1", "", "a0", 2)
	wa.PutFloat("i0", "", "a1", 3)
	wa.PutFloat("i1", "", "a1", 4)
	wa.Close()
	// B = [5 6; 7 8] (inner i0,i1 × cols b0,b1).
	wb, _ := c.CreateBatchWriter("B", BatchWriterConfig{})
	wb.PutFloat("i0", "", "b0", 5)
	wb.PutFloat("i0", "", "b1", 6)
	wb.PutFloat("i1", "", "b0", 7)
	wb.PutFloat("i1", "", "b1", 8)
	wb.Close()

	// Scan B with the multiply stack: results flow into C server-side.
	s, _ := c.CreateScanner("B")
	s.AddScanIterator(iterator.Setting{Name: "twoTable", Priority: 30,
		Opts: map[string]string{"tableAT": "AT", "semiring": "plus.times"}})
	s.AddScanIterator(iterator.Setting{Name: "remoteWrite", Priority: 40,
		Opts: map[string]string{"table": "C"}})
	monitors, err := s.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(monitors) == 0 {
		t.Fatalf("expected monitoring entries from remoteWrite")
	}
	got := scanFloats(t, c, "C")
	// C = A·B = [1·5+2·7, 1·6+2·8; 3·5+4·7, 3·6+4·8] = [19 22; 43 50].
	want := map[string]float64{"a0 b0": 19, "a0 b1": 22, "a1 b0": 43, "a1 b1": 50}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("C[%s] = %v, want %v (all %v)", k, got[k], v, got)
		}
	}
}
