package graphulo

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"graphulo/internal/accumulo"
)

// TestKernelDuringConcurrentIngestTransports pins the scan/ingest
// isolation claim of the concurrent write path: a kernel running while
// other writers hammer the cluster — freezing memtables, rotating WALs,
// flushing in the background — must produce results cell-identical to
// the same kernel on an idle cluster, on all three transports. The load
// lands in a separate table so the kernel's input is fixed; what the
// load perturbs is everything the kernel shares with it (tablet
// servers, transport, memtable freeze/flush machinery, the WAL).
func TestKernelDuringConcurrentIngestTransports(t *testing.T) {
	g := PaperGraph()
	type result struct {
		bfs     map[string]int
		degrees map[string]float64
	}

	run := func(t *testing.T, cfg ClusterConfig, withLoad bool) result {
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

		var stop atomic.Bool
		var wg sync.WaitGroup
		if withLoad {
			if err := db.Connector().TableOperations().Create("LOAD"); err != nil {
				t.Fatal(err)
			}
			const loadWriters = 4
			for w := 0; w < loadWriters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					bw, err := db.Connector().CreateBatchWriter("LOAD",
						accumulo.BatchWriterConfig{MaxBufferEntries: 32})
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
		}

		var res result
		for pass := 0; pass < 3; pass++ {
			if res.bfs, err = tg.BFS([]int{1}, 2); err != nil {
				t.Fatal(err)
			}
			if res.degrees, err = tg.Degrees(); err != nil {
				t.Fatal(err)
			}
		}
		stop.Store(true)
		wg.Wait()
		return res
	}

	configs := []struct {
		name string
		cfg  func(t *testing.T) ClusterConfig
	}{
		{"inproc", func(*testing.T) ClusterConfig {
			return ClusterConfig{Transport: "inproc", MemLimit: 128}
		}},
		{"tcp", func(*testing.T) ClusterConfig {
			return ClusterConfig{Transport: "tcp", MemLimit: 128}
		}},
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

	serial := run(t, ClusterConfig{Transport: "inproc", MemLimit: 128}, false)
	if len(serial.bfs) == 0 || len(serial.degrees) == 0 {
		t.Fatalf("serial reference run produced empty results: %+v", serial)
	}
	for _, c := range configs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got := run(t, c.cfg(t), true)
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("kernel under concurrent ingest differs from serial:\n%s: %+v\nserial: %+v",
					c.name, got, serial)
			}
		})
	}
}

// TestEdgeLookupUsesColQBloom pins the (row, colQ) bloom end to end
// through the public API: on a durable graph whose adjacency lives in
// rfiles, EdgeWeight/HasEdge probes for absent edges of present
// vertices are answered by the pair filter (ScanStats.ColQBloomNegatives
// rises), present edges are never missed, and absent edges read false.
func TestEdgeLookupUsesColQBloom(t *testing.T) {
	db, err := Open(ClusterConfig{DataDir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	g := PaperGraph()
	if err := tg.Ingest(g); err != nil {
		t.Fatal(err)
	}
	// Flush so lookups hit rfile-backed runs, where the blooms live.
	a, at, deg := tg.Tables()
	for _, table := range []string{a, at, deg} {
		if err := db.Connector().TableOperations().Flush(table); err != nil {
			t.Fatal(err)
		}
	}

	present := map[[2]int]bool{}
	for _, e := range g.Edges {
		present[[2]int{e.U, e.V}] = true
		present[[2]int{e.V, e.U}] = true // undirected ingest
	}
	for edge := range present {
		w, ok, err := tg.EdgeWeight(edge[0], edge[1])
		if err != nil {
			t.Fatal(err)
		}
		if !ok || w == 0 {
			t.Fatalf("present edge (%d,%d) not found (w=%v ok=%v)", edge[0], edge[1], w, ok)
		}
	}
	// Probe absent edges between vertices that all exist: the row bloom
	// admits every probe, only the pair filter can short-circuit it.
	absentProbes := 0
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			if u == v || present[[2]int{u, v}] {
				continue
			}
			ok, err := tg.HasEdge(u, v)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("absent edge (%d,%d) reported present", u, v)
			}
			absentProbes++
		}
	}
	if absentProbes == 0 {
		t.Fatal("graph too dense: no absent edges to probe")
	}
	if neg := db.ScanMetrics().ColQBloomNegatives; neg == 0 {
		t.Fatalf("ColQBloomNegatives = 0 after %d absent-edge probes", absentProbes)
	}

}
