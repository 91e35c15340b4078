package graphulo

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphulo/internal/accumulo"
)

// listTables snapshots the cluster's table list, sorted.
func listTables(db *DB) []string {
	tables := db.Connector().TableOperations().List()
	sort.Strings(tables)
	return tables
}

// TestKernelScanBudgetCancelsCleanly: a kernel that exhausts its
// per-query scan-entry budget fails with a typed BudgetError, and the
// cancellation is clean — no scratch tables leak.
func TestKernelScanBudgetCancelsCleanly(t *testing.T) {
	db := mustOpen(ClusterConfig{ScanEntryBudget: 8})
	defer db.Close()
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(PaperGraph()); err != nil {
		t.Fatal(err)
	}
	before := listTables(db)

	a, at, _ := tg.Tables()
	_, err = db.TableMult(at, a, "C", "plus.times")
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("TableMult error = %v, want *BudgetError", err)
	}
	if be.Resource != "scan entries" || be.Limit != 8 {
		t.Fatalf("BudgetError = %+v, want scan entries over limit 8", be)
	}

	// A multi-step kernel trips the same budget; any scratch tables it
	// created must be dropped on the error path, not leaked.
	if _, err := tg.KTruss(3); !errors.As(err, &be) {
		t.Fatalf("KTruss error = %v, want *BudgetError", err)
	}
	after := listTables(db)
	// Only the explicitly requested output table C may have appeared.
	want := append(append([]string(nil), before...), "C")
	sort.Strings(want)
	if !reflect.DeepEqual(after, want) {
		t.Fatalf("tables after budget cancellations = %v, want %v (scratch leak)", after, want)
	}
}

// TestKernelWriteBudgetCancels: the write-byte budget cancels a kernel
// at the write path with the typed error — server-side writes, both
// TableMult's result and the support a kTruss round writes into its
// round table — and kTruss leaves no scratch table behind. Without a
// budget, kTruss's round writes are counted in its own query.
func TestKernelWriteBudgetCancels(t *testing.T) {
	db := mustOpen(ClusterConfig{WriteByteBudget: 16})
	defer db.Close()
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(PaperGraph()); err != nil {
		t.Fatal(err)
	}
	a, at, _ := tg.Tables()
	_, err = db.TableMult(at, a, "C", "plus.times")
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("TableMult error = %v, want *BudgetError", err)
	}
	if be.Resource != "write bytes" {
		t.Fatalf("BudgetError resource = %q, want write bytes", be.Resource)
	}

	before := listTables(db)
	be = nil
	if _, err := tg.KTruss(3); !errors.As(err, &be) || be.Resource != "write bytes" {
		t.Fatalf("KTruss error = %v, want a write-bytes *BudgetError", err)
	}
	if after := listTables(db); !reflect.DeepEqual(after, before) {
		t.Fatalf("tables after kTruss budget cancellation = %v, want %v (scratch leak)", after, before)
	}

	free := mustOpen(ClusterConfig{})
	defer free.Close()
	ftg, err := free.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := ftg.Ingest(PaperGraph()); err != nil {
		t.Fatal(err)
	}
	if _, err := ftg.KTruss(3); err != nil {
		t.Fatal(err)
	}
	var written int64 = -1
	for _, qs := range free.QueryStats() {
		if qs.Kernel == "kTruss" {
			written = qs.Counters["entries_written"]
		}
	}
	if written <= 0 {
		t.Fatalf("kTruss query entries_written = %d, want > 0", written)
	}
}

// TestKernelAdmissionRejection: with every query slot held and no wait
// queue, a kernel call is rejected up front with a typed AdmissionError
// and succeeds once a slot frees.
func TestKernelAdmissionRejection(t *testing.T) {
	db := mustOpen(ClusterConfig{MaxConcurrentQueries: 1, MaxQueuedQueries: -1})
	defer db.Close()
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(PaperGraph()); err != nil {
		t.Fatal(err)
	}
	_, finish, err := db.Connector().Cluster().StartKernelQuery("Hold", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tg.BFS([]int{1}, 2)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("BFS with slots busy: err = %v, want *AdmissionError", err)
	}
	finish(nil)
	if _, err := tg.BFS([]int{1}, 2); err != nil {
		t.Fatalf("BFS after slot release: %v", err)
	}
}

// TestConcurrentKernelsByteIdenticalScheduled pins the admission
// layer's correctness claim end to end: N concurrent mixed kernels
// (AdjBFS, Jaccard, TriangleCount, TableMult) on shared tables, queuing
// for fewer admission slots than there are workers, under two tenants
// and concurrent freeze-and-swap ingest load, produce results
// byte-identical to the serial, unscheduled reference — on all three
// transports.
func TestConcurrentKernelsByteIdenticalScheduled(t *testing.T) {
	g := PaperGraph()
	const workers = 4

	assocMap := func(entries []AssocEntry) map[string]float64 {
		m := make(map[string]float64, len(entries))
		for _, e := range entries {
			m[e.Row+"|"+e.Col] = e.Val
		}
		return m
	}

	// Serial, scheduler-free reference.
	ref := func() (bfs map[string]int, jac map[string]float64, tc float64, mult map[string]float64) {
		db := mustOpen(ClusterConfig{})
		defer db.Close()
		tg, err := db.CreateGraph("G")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Ingest(g); err != nil {
			t.Fatal(err)
		}
		if bfs, err = tg.BFS([]int{1}, 2); err != nil {
			t.Fatal(err)
		}
		j, err := tg.Jaccard()
		if err != nil {
			t.Fatal(err)
		}
		jac = assocMap(j.Entries())
		if tc, err = tg.TriangleCount(); err != nil {
			t.Fatal(err)
		}
		a, at, _ := tg.Tables()
		if _, err := db.TableMult(at, a, "Cref", "plus.times"); err != nil {
			t.Fatal(err)
		}
		c, err := db.ReadAssoc("Cref")
		if err != nil {
			t.Fatal(err)
		}
		mult = assocMap(c.Entries())
		return
	}
	refBFS, refJac, refTC, refMult := ref()
	if len(refBFS) == 0 || len(refJac) == 0 || refTC == 0 || len(refMult) == 0 {
		t.Fatal("serial reference produced empty results")
	}

	configs := []struct {
		name string
		cfg  func(t *testing.T) ClusterConfig
	}{
		{"inproc", func(*testing.T) ClusterConfig { return ClusterConfig{Transport: "inproc"} }},
		{"tcp", func(*testing.T) ClusterConfig { return ClusterConfig{Transport: "tcp"} }},
		{"external", func(t *testing.T) ClusterConfig {
			var addrs []string
			for i := 0; i < 2; i++ {
				srv, err := ListenAndServeTablets("127.0.0.1:0", 128)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				addrs = append(addrs, srv.Addr())
			}
			return ClusterConfig{Servers: addrs}
		}},
	}

	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			cfg.MemLimit = 128 // small memtables: the load forces freeze-and-swap
			// Fewer query slots than workers: admission really queues.
			cfg.MaxConcurrentQueries = workers / 2
			db := mustOpen(cfg)
			defer db.Close()
			tg, err := db.CreateGraph("G")
			if err != nil {
				t.Fatal(err)
			}
			if err := tg.Ingest(g); err != nil {
				t.Fatal(err)
			}
			a, at, _ := tg.Tables()

			// Background ingest into a separate table keeps the memtable
			// freeze/flush machinery and the transport busy underneath the
			// kernels without changing their input.
			if err := db.Connector().TableOperations().Create("LOAD"); err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var load sync.WaitGroup
			for w := 0; w < 2; w++ {
				load.Add(1)
				go func(w int) {
					defer load.Done()
					bw, err := db.Connector().CreateBatchWriter("LOAD", accumulo.BatchWriterConfig{MaxBufferEntries: 32})
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; !stop.Load(); i++ {
						if err := bw.PutFloat(fmt.Sprintf("w%d-r%06d", w, i), "", "q", 1); err != nil {
							t.Error(err)
							return
						}
					}
					if err := bw.Close(); err != nil {
						t.Error(err)
					}
				}(w)
			}

			// Hold every query slot until a kernel has queued behind them,
			// so the admission wait asserted below is forced, not left to
			// how the workers happen to interleave.
			sch := db.Connector().Cluster().Scheduler()
			var held []func()
			for i := 0; i < cfg.MaxConcurrentQueries; i++ {
				release, _, err := sch.Admit("hold")
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, release)
			}

			var wg sync.WaitGroup
			errs := make([]error, workers)
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					tenant := fmt.Sprintf("t%d", i%2)
					bfs, err := tg.BFSWithOptions([]int{1}, 2, BFSOptions{Tenant: tenant})
					if err != nil {
						errs[i] = fmt.Errorf("worker %d BFS: %w", i, err)
						return
					}
					if !reflect.DeepEqual(bfs, refBFS) {
						errs[i] = fmt.Errorf("worker %d BFS diverged: %v != %v", i, bfs, refBFS)
						return
					}
					j, err := tg.Jaccard()
					if err != nil {
						errs[i] = fmt.Errorf("worker %d Jaccard: %w", i, err)
						return
					}
					if jm := assocMap(j.Entries()); !reflect.DeepEqual(jm, refJac) {
						errs[i] = fmt.Errorf("worker %d Jaccard diverged", i)
						return
					}
					tc, err := tg.TriangleCount()
					if err != nil {
						errs[i] = fmt.Errorf("worker %d TriangleCount: %w", i, err)
						return
					}
					if tc != refTC {
						errs[i] = fmt.Errorf("worker %d TriangleCount = %v, want %v", i, tc, refTC)
						return
					}
					out := fmt.Sprintf("C%d", i)
					if _, err := db.TableMultOpts(at, a, out, MultOptions{Semiring: "plus.times", Tenant: tenant}); err != nil {
						errs[i] = fmt.Errorf("worker %d TableMult: %w", i, err)
						return
					}
					got, err := db.ReadAssoc(out)
					if err != nil {
						errs[i] = fmt.Errorf("worker %d ReadAssoc: %w", i, err)
						return
					}
					if gm := assocMap(got.Entries()); !reflect.DeepEqual(gm, refMult) {
						errs[i] = fmt.Errorf("worker %d TableMult output diverged", i)
					}
				}(i)
			}
			for deadline := time.Now().Add(10 * time.Second); sch.QueriesQueued() == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("no kernel queued behind the held slots")
					break
				}
			}
			for _, release := range held {
				release()
			}
			wg.Wait()
			stop.Store(true)
			load.Wait()
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}

			// Sixteen kernel queries over two slots: some waited.
			tel := db.Connector().Cluster().Telemetry()
			if n := tel.QueueWait.Snapshot().Count; n == 0 {
				t.Error("no kernel query waited for admission")
			}
			// Both tenants ran kernels; their telemetry accumulated.
			tenants := map[string]bool{}
			for _, ts := range tel.TenantSnapshots() {
				tenants[ts.Tenant] = true
			}
			if !tenants["t0"] || !tenants["t1"] {
				t.Errorf("per-tenant telemetry missing a tenant: %v", tenants)
			}
		})
	}
}
