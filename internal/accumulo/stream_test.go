package accumulo

import (
	"fmt"
	"testing"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// streamTestCluster builds a pre-split table with enough entries per
// tablet that workers ship several wire batches each.
func streamTestCluster(t *testing.T, cfg Config, table string, splits []string, rows, colsPerRow int) *Connector {
	t.Helper()
	conn := NewMiniCluster(cfg).Connector()
	if err := conn.TableOperations().CreateWithSplits(table, splits); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter(table, BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < colsPerRow; j++ {
			if err := w.PutFloat(fmt.Sprintf("r%04d", i), "", fmt.Sprintf("c%03d", j), float64(i*colsPerRow+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return conn
}

func quartileSplits(rows int) []string {
	return []string{
		fmt.Sprintf("r%04d", rows/4),
		fmt.Sprintf("r%04d", rows/2),
		fmt.Sprintf("r%04d", 3*rows/4),
	}
}

func TestEntryStreamMatchesEntries(t *testing.T) {
	conn := streamTestCluster(t, Config{TabletServers: 3, WireBatch: 32, ScanParallelism: 4},
		"S", quartileSplits(200), 200, 4)
	sc, err := conn.CreateScanner("S")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 800 {
		t.Fatalf("scan returned %d entries, want 800", len(want))
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	i := 0
	var prev skv.Key
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if i >= len(want) {
			t.Fatalf("stream yielded more than %d entries", len(want))
		}
		if skv.Compare(e.K, want[i].K) != 0 {
			t.Fatalf("entry %d: stream %v, scan %v", i, e.K, want[i].K)
		}
		if i > 0 && skv.Compare(prev, e.K) > 0 {
			t.Fatalf("stream out of order at %d: %v after %v", i, e.K, prev)
		}
		prev = e.K
		i++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("stream yielded %d entries, want %d", i, len(want))
	}
}

func TestEntryStreamRangeScan(t *testing.T) {
	conn := streamTestCluster(t, Config{WireBatch: 16}, "R", quartileSplits(100), 100, 2)
	sc, err := conn.CreateScanner("R")
	if err != nil {
		t.Fatal(err)
	}
	sc.SetRange(skv.RowRange("r0040", "r0060"))
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("range stream returned %d entries, want 40", len(got))
	}
	for _, e := range got {
		if e.K.Row < "r0040" || e.K.Row >= "r0060" {
			t.Fatalf("entry %v outside range", e.K)
		}
	}
}

func TestEntryStreamBufferBounded(t *testing.T) {
	// A whole-table scan through small wire batches must never buffer
	// anything close to the table: the bound is wire batches × workers
	// (one in flight + one being built per worker), not table size.
	const wireBatch, par = 32, 2
	conn := streamTestCluster(t, Config{WireBatch: wireBatch, ScanParallelism: par},
		"B", quartileSplits(400), 400, 8) // 3200 entries
	sc, err := conn.CreateScanner("B")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3200 {
		t.Fatalf("streamed %d entries, want 3200", n)
	}
	max := conn.Cluster().Telemetry().Stats.Get(telemetry.MaxEntriesBuffered)
	if max == 0 {
		t.Fatal("MaxEntriesBuffered never moved")
	}
	// Generous bound: channel batch + consuming batch per worker, plus
	// one worker's batch under construction.
	if limit := int64(wireBatch * (2*par + 2)); max > limit {
		t.Fatalf("peak buffered %d entries exceeds pipeline bound %d (table holds 3200)", max, limit)
	}
}

func TestEntryStreamTabletParallelism(t *testing.T) {
	// With several multi-batch tablets and a parallelism budget, workers
	// for later tablets must run while the first tablet is still being
	// consumed.
	conn := streamTestCluster(t, Config{WireBatch: 16, ScanParallelism: 4},
		"P", quartileSplits(400), 400, 4)
	sc, err := conn.CreateScanner("P")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1600 {
		t.Fatalf("scanned %d entries, want 1600", len(entries))
	}
	if max := conn.Cluster().Telemetry().Stats.Get(telemetry.MaxScansInFlight); max < 2 {
		t.Fatalf("MaxScansInFlight = %d, want >= 2 (tablet scans never overlapped)", max)
	}
}

func TestEntryStreamEarlyClose(t *testing.T) {
	conn := streamTestCluster(t, Config{WireBatch: 16, ScanParallelism: 4},
		"C", quartileSplits(200), 200, 4)
	sc, err := conn.CreateScanner("C")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("stream ended after %d entries", i)
		}
	}
	st.Close()
	st.Close() // idempotent
	if _, ok := st.Next(); ok {
		t.Fatal("Next returned an entry after Close")
	}
	// Workers must wind down after the close.
	m := &conn.Cluster().Telemetry().Stats
	deadline := time.Now().Add(5 * time.Second)
	for m.Get(telemetry.ScansInFlight) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ScansInFlight stuck at %d after Close", m.Get(telemetry.ScansInFlight))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestEntryStreamPropagatesIteratorError(t *testing.T) {
	conn := streamTestCluster(t, Config{WireBatch: 16}, "E", nil, 50, 2)
	sc, err := conn.CreateScanner("E")
	if err != nil {
		t.Fatal(err)
	}
	sc.AddScanIterator(iterator.Setting{Name: "definitely-not-registered", Priority: 55})
	if _, err := sc.Entries(); err == nil {
		t.Fatal("scan with unknown iterator succeeded")
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.Next(); ok {
		t.Fatal("stream yielded an entry despite broken stack")
	}
	if st.Err() == nil {
		t.Fatal("stream error not surfaced via Err")
	}
}

func TestScanParallelismOneMatchesParallel(t *testing.T) {
	var baseline []skv.Entry
	for _, par := range []int{1, 4} {
		conn := streamTestCluster(t, Config{WireBatch: 32, ScanParallelism: par},
			"M", quartileSplits(120), 120, 3)
		sc, err := conn.CreateScanner("M")
		if err != nil {
			t.Fatal(err)
		}
		got, err := sc.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			baseline = got
			continue
		}
		if len(got) != len(baseline) {
			t.Fatalf("parallelism %d returned %d entries, serial returned %d", par, len(got), len(baseline))
		}
		for i := range got {
			if skv.Compare(got[i].K, baseline[i].K) != 0 {
				t.Fatalf("entry %d differs between serial and parallel scans", i)
			}
		}
	}
}
