package accumulo

// Integration tests for query admission and budgets: typed admission
// rejection, and budget exhaustion surfacing through the streaming scan
// path.

import (
	"errors"
	"fmt"
	"testing"

	"graphulo/internal/sched"
)

// TestAdmissionRejectionTyped: with one query slot and no wait queue,
// the second concurrent kernel query is rejected with a typed
// *sched.AdmissionError, never started, and the slot frees cleanly.
func TestAdmissionRejectionTyped(t *testing.T) {
	mc := NewMiniCluster(Config{MaxConcurrentQueries: 1, MaxQueuedQueries: -1})
	queriesBase := len(mc.Telemetry().Snapshot())
	_, finish, err := mc.StartKernelQuery("Hold", "acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Scheduler().QueriesRunning(); got != 1 {
		t.Fatalf("QueriesRunning = %d, want 1", got)
	}
	_, _, err = mc.StartKernelQuery("Rejected", "acme")
	var adm *sched.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("second query error = %v, want *sched.AdmissionError", err)
	}
	if adm.Tenant != "acme" || adm.Limit != 1 {
		t.Fatalf("AdmissionError = %+v, want tenant acme, limit 1", adm)
	}
	// The rejected query must not have left a telemetry record.
	if got := len(mc.Telemetry().Snapshot()); got != queriesBase+1 {
		t.Fatalf("telemetry records %d queries, want %d (rejection must not start one)", got, queriesBase+1)
	}
	finish(nil)
	if got := mc.Scheduler().QueriesRunning(); got != 0 {
		t.Fatalf("QueriesRunning after finish = %d, want 0", got)
	}
	_, finish2, err := mc.StartKernelQuery("After", "acme")
	if err != nil {
		t.Fatalf("admission after release failed: %v", err)
	}
	finish2(nil)
}

// TestScanBudgetSurfacesThroughStream: a query over its scan-entry
// budget is cancelled at the counting site and the typed error reaches
// the consumer through EntryStream.Err, well before the table is
// exhausted.
func TestScanBudgetSurfacesThroughStream(t *testing.T) {
	mc := NewMiniCluster(Config{WireBatch: 4, ScanEntryBudget: 10})
	conn := mc.Connector()
	if err := conn.TableOperations().Create("B"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("B", BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400
	for i := 0; i < rows; i++ {
		if err := w.PutFloat(fmt.Sprintf("r%04d", i), "", "q", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	q, finish, err := mc.StartKernelQuery("BudgetedScan", "acme")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := conn.CreateScanner("B")
	if err != nil {
		t.Fatal(err)
	}
	sc.SetTrace(q)
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Collect()
	finish(err)
	var be *sched.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("drained stream error = %v, want *sched.BudgetError", err)
	}
	if be.Resource != "scan entries" || be.Tenant != "acme" || be.Limit != 10 {
		t.Fatalf("BudgetError = %+v, want scan entries / acme / limit 10", be)
	}
	if len(got) >= rows {
		t.Fatalf("budget of 10 entries did not stop a %d-entry scan (got %d)", rows, len(got))
	}
}
