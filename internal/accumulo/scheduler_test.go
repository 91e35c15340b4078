package accumulo

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// TestSustainedIngestBoundedRuns is the acceptance test for the
// background compaction scheduler: under sustained ingest with a tiny
// memtable, per-tablet run counts must settle at or under
// MaxRunsPerTablet, scans running concurrently with automatic major
// compactions must stay correct, and the final contents must match the
// sum-combiner expectation.
func TestSustainedIngestBoundedRuns(t *testing.T) {
	const maxRuns = 3
	mc, err := OpenMiniCluster(Config{
		TabletServers:    2,
		MemLimit:         32, // spill a run every 32 entries
		WireBatch:        64,
		DataDir:          t.TempDir(),
		MaxRunsPerTablet: maxRuns,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	conn := mc.Connector()
	ops := conn.TableOperations()
	if err := ops.CreateWithSplits("T", []string{"r1", "r2", "r3"}); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator("T", "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("T", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}

	// Concurrent scanners exercise reads against in-flight auto-majc.
	stopScan := make(chan struct{})
	var wg sync.WaitGroup
	scanErr := make(chan error, 4)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopScan:
					return
				default:
				}
				sc, err := conn.CreateScanner("T")
				if err != nil {
					scanErr <- err
					return
				}
				st, err := sc.Stream()
				if err != nil {
					scanErr <- err
					return
				}
				prev := skv.Key{}
				first := true
				for e, ok := st.Next(); ok; e, ok = st.Next() {
					if !first && skv.Compare(prev, e.K) > 0 {
						scanErr <- fmt.Errorf("scan out of order: %v after %v", e.K, prev)
						st.Close()
						return
					}
					prev, first = e.K, false
				}
				if err := st.Err(); err != nil {
					scanErr <- err
					return
				}
				st.Close()
			}
		}()
	}

	// Sustained ingest: every cell written 4 times so the combiner and
	// the compactions both have real work.
	const rows, reps = 400, 4
	w, err := conn.CreateBatchWriter("T", BatchWriterConfig{MaxBufferEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < rows; i++ {
			row := fmt.Sprintf("r%d-%04d", i%4, i)
			if err := w.PutFloat(row, "", "x", float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	close(stopScan)
	wg.Wait()
	select {
	case err := <-scanErr:
		t.Fatalf("concurrent scan failed during auto-majc: %v", err)
	default:
	}

	// The scheduler must fold the backlog below the threshold.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runs, err := ops.TabletRuns("T")
		if err != nil {
			t.Fatal(err)
		}
		over := 0
		for _, n := range runs {
			if n > maxRuns {
				over++
			}
		}
		if over == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run counts never settled under %d: %v", maxRuns, runs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := mc.tel.Stats.Get(telemetry.MajorCompactions); got == 0 {
		t.Fatal("no automatic major compactions recorded")
	}
	if got := mc.tel.Stats.Get(telemetry.MajorCompactionErrors); got != 0 {
		t.Fatalf("%d scheduled compactions failed", got)
	}

	// Contents must equal the sum-combiner expectation: rows*reps
	// writes folded into rows cells of value reps*i.
	entries := scanTable(t, conn, "T")
	if len(entries) != rows {
		t.Fatalf("final scan = %d cells, want %d", len(entries), rows)
	}
	for _, e := range entries {
		v, ok := skv.DecodeFloat(e.V)
		if !ok {
			t.Fatalf("undecodable cell %v", e.K)
		}
		var i int
		var tb int
		if _, err := fmt.Sscanf(e.K.Row, "r%d-%04d", &tb, &i); err != nil {
			t.Fatalf("unexpected row %q", e.K.Row)
		}
		if want := float64(reps * i); v != want {
			t.Fatalf("row %s = %v, want %v (combiner lost under auto-majc)", e.K.Row, v, want)
		}
	}
}

// TestSchedulerStopsOnClose checks Close halts scheduled compactions
// and a reopened cluster restarts them from the manifest config.
func TestSchedulerStopsOnClose(t *testing.T) {
	dir := t.TempDir()
	mc, err := OpenMiniCluster(Config{MemLimit: 16, DataDir: dir, MaxRunsPerTablet: 2})
	if err != nil {
		t.Fatal(err)
	}
	conn := mc.Connector()
	if err := conn.TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("T", BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := w.PutFloat(fmt.Sprintf("r%04d", i), "", "x", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery wires a fresh scheduler to the recovered tablets.
	mc2, err := OpenMiniCluster(Config{MemLimit: 16, DataDir: dir, MaxRunsPerTablet: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	meta, err := mc2.getTable("T")
	if err != nil {
		t.Fatal(err)
	}
	if meta.sched == nil {
		t.Fatal("recovered table has no compaction scheduler")
	}
	got := scanTable(t, mc2.Connector(), "T")
	if len(got) != 200 {
		t.Fatalf("recovered scan = %d entries, want 200", len(got))
	}
}
