package accumulo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// TestSustainedIngestBoundedRuns is the acceptance test for the run
// bound, in memory and on a data directory: under sustained ingest with
// a tiny memtable, scans running concurrently with the flushes' merges
// must stay correct, every tablet must hold at most MaxRunsPerTablet
// runs once Flush returns, and the final contents must match the
// sum-combiner expectation.
func TestSustainedIngestBoundedRuns(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { sustainedIngestBoundedRuns(t, durable) })
	}
}

func sustainedIngestBoundedRuns(t *testing.T, durable bool) {
	const maxRuns = 3
	cfg := Config{
		TabletServers:    2,
		MemLimit:         32, // spill a run every 32 entries
		WireBatch:        64,
		MaxRunsPerTablet: maxRuns,
	}
	if durable {
		cfg.DataDir = t.TempDir()
	}
	mc, err := OpenMiniCluster(cfg)
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

	// Concurrent scanners exercise reads against in-flight merges.
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
		t.Fatalf("concurrent scan failed during merges: %v", err)
	default:
	}

	// The bound holds the moment Flush returns.
	if err := ops.Flush("T"); err != nil {
		t.Fatal(err)
	}
	runs, err := ops.TabletRuns("T")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range runs {
		if n > maxRuns {
			t.Fatalf("run counts after Flush %v, bound %d", runs, maxRuns)
		}
	}
	if got := mc.tel.Stats.Get(telemetry.MajorCompactions); got == 0 {
		t.Fatal("no merges recorded")
	}
	if got := mc.tel.Stats.Get(telemetry.MajorCompactionErrors); got != 0 {
		t.Fatalf("%d merges failed", got)
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
			t.Fatalf("row %s = %v, want %v (combiner lost under merges)", e.K.Row, v, want)
		}
	}
}

// TestRunBoundSurvivesReopen: tablets recovered from the data directory
// keep the run bound.
func TestRunBoundSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MemLimit: 16, DataDir: dir, MaxRunsPerTablet: 2}
	write := func(mc *MiniCluster, lo, hi int) {
		t.Helper()
		w, err := mc.Connector().CreateBatchWriter("T", BatchWriterConfig{MaxBufferEntries: 8})
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			if err := w.PutFloat(fmt.Sprintf("r%04d", i), "", "x", 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	mc, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Connector().TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	write(mc, 0, 200)
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}

	mc2, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mc2.Close()
	write(mc2, 200, 300) // several memtables' worth of fresh runs
	ops := mc2.Connector().TableOperations()
	if err := ops.Flush("T"); err != nil {
		t.Fatal(err)
	}
	runs, err := ops.TabletRuns("T")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range runs {
		if n > 2 {
			t.Fatalf("recovered tablets' runs after Flush = %v, bound 2", runs)
		}
	}
	if got := scanTable(t, mc2.Connector(), "T"); len(got) != 300 {
		t.Fatalf("recovered scan = %d entries, want 300", len(got))
	}
}

// mergeHold parks the first merge whose majc stack holds the
// "testHoldMerge" iterator: building that stack signals entered, then
// waits for release.
type mergeHold struct {
	entered, release chan struct{}
	once             sync.Once
}

var heldMerge atomic.Pointer[mergeHold]

func init() {
	iterator.Register("testHoldMerge", func(src iterator.SKVI, _ map[string]string, _ iterator.Env) (iterator.SKVI, error) {
		if h := heldMerge.Load(); h != nil {
			h.once.Do(func() {
				close(h.entered)
				<-h.release
			})
		}
		return src, nil
	})
}

// TestRunBoundCloseDeleteWaitOutMerge: with a merge held in its majc
// stack, Delete and Close return only after it finishes, and nothing
// merges into the directory afterwards: the manifest on disk references
// every file in rf/, and rf/ does not change once the merge is done.
func TestRunBoundCloseDeleteWaitOutMerge(t *testing.T) {
	for _, op := range []string{"Delete", "Close"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			mc, err := OpenMiniCluster(Config{TabletServers: 1, DataDir: dir, NoSync: true, MaxRunsPerTablet: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			conn := mc.Connector()
			ops := conn.TableOperations()
			if err := ops.Create("T"); err != nil {
				t.Fatal(err)
			}
			if err := ops.AttachIterator("T", iterator.Setting{Name: "testHoldMerge", Priority: 30}, MajcScope); err != nil {
				t.Fatal(err)
			}
			h := &mergeHold{entered: make(chan struct{}), release: make(chan struct{})}
			heldMerge.Store(h)
			defer heldMerge.Store(nil)
			w, err := conn.CreateBatchWriter("T", BatchWriterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range []string{"a", "b"} {
				if err := w.PutFloat(row, "", "x", 1); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					if err := ops.Flush("T"); err != nil { // one run: no merge
						t.Fatal(err)
					}
				}
			}
			flushDone := make(chan error, 1)
			go func() { flushDone <- ops.Flush("T") }() // two runs: the merge is held
			<-h.entered

			opDone := make(chan error, 1)
			go func() {
				if op == "Delete" {
					opDone <- ops.Delete("T")
				} else {
					opDone <- mc.Close()
				}
			}()
			select {
			case err := <-opDone:
				close(h.release)
				t.Fatalf("%s returned (%v) with a merge in flight", op, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(h.release)
			if err := <-opDone; err != nil {
				t.Fatal(err)
			}
			files := rfFiles(t, dir)
			if err := <-flushDone; err != nil {
				t.Fatal(err)
			}
			referenced := manifestRFiles(t, dir)
			for _, f := range files {
				if !referenced[f] {
					t.Fatalf("rf/%s is not in the manifest after %s", f, op)
				}
			}
			if after := rfFiles(t, dir); fmt.Sprint(after) != fmt.Sprint(files) {
				t.Fatalf("rf/ changed after %s returned: %v -> %v", op, files, after)
			}
		})
	}
}

// rfFiles lists the data directory's rf/ files, sorted.
func rfFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "rf"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		out = append(out, de.Name())
	}
	sort.Strings(out)
	return out
}

// manifestRFiles returns the set of rfiles the on-disk manifest
// references.
func manifestRFiles(t *testing.T, dir string) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tables map[string]struct {
			Tablets []struct {
				RFiles []string `json:"rfiles"`
			} `json:"tablets"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, tm := range man.Tables {
		for _, tb := range tm.Tablets {
			for _, f := range tb.RFiles {
				out[f] = true
			}
		}
	}
	return out
}

// TestRunBoundStackTakesNoTableLock: a compaction stack runs under a
// tablet's compaction lock, and AddSplits holds the table's metadata
// lock while it waits for that lock, so running the stack must not
// wait on table metadata, even when the topology changed after the
// stack was built. A stack that rebuilt the router when it ran
// deadlocked a background merge against a split.
func TestRunBoundStackTakesNoTableLock(t *testing.T) {
	mc := NewMiniCluster(Config{TabletServers: 1})
	defer mc.Close()
	if err := mc.Connector().TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	meta, err := mc.getTable("T")
	if err != nil {
		t.Fatal(err)
	}
	stack := mc.compactionStack(meta, MajcScope)
	if stack == nil {
		t.Fatal("a new table has no majc stack")
	}
	mc.topologyChanged()
	meta.mu.Lock() // as AddSplits holds it across SplitAt
	done := make(chan error, 1)
	go func() {
		it, err := stack(iterator.NewSliceIter([]skv.Entry{{K: skv.Key{Row: "r", Ts: 1}}}))
		if err == nil {
			if err = it.Seek(skv.FullRange()); err == nil {
				_, err = iterator.Collect(it)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		meta.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		meta.mu.Unlock()
		<-done
		t.Fatal("the compaction stack waited on the table's metadata lock")
	}
}
