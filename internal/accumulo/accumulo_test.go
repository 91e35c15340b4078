package accumulo

import (
	"fmt"
	"math/rand"
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
