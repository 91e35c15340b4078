// Command loadgen drives query admission with a concurrent mixed kernel
// stream, for soak runs against real daemons. N workers share one
// graph's tables and rotate through AdjBFS, Jaccard, and TableMult,
// spread across tenant labels, while bounded FIFO admission and
// per-query budgets are live. The run prints aggregate throughput,
// end-to-end latency quantiles, admission queue wait, and a per-tenant
// breakdown.
//
// Usage:
//
//	loadgen -workers 8 -ops 6 -scale 7                 # in-process cluster
//	loadgen -transport tcp -workers 8                  # TCP loopback
//	loadgen -servers 127.0.0.1:9471,127.0.0.1:9472     # external daemons
//
// Admission knobs: -max-concurrent-queries and -max-queued-queries (only
// a concurrent stream reaches them, so cmd/graphulo, which runs one
// query at a time, has neither) and -scan-entry-budget; -tenants
// spreads the workers across t0..t{k-1}.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"graphulo"
)

var (
	transportF = flag.String("transport", "inproc", "cluster transport: inproc or tcp")
	serversF   = flag.String("servers", "", "comma-separated external tablet server addresses (overrides -transport)")
	workersF   = flag.Int("workers", 4, "concurrent kernel workers")
	opsF       = flag.Int("ops", 6, "kernel calls per worker")
	scaleF     = flag.Int("scale", 7, "RMAT graph scale (2^scale vertices)")
	tenantsF   = flag.Int("tenants", 2, "tenant labels to spread workers across")
	maxQ       = flag.Int("max-concurrent-queries", 0, "query slots (0 = default)")
	maxQueued  = flag.Int("max-queued-queries", 0, "admission wait-queue depth (0 = default)")
	scanBudget = flag.Int64("scan-entry-budget", 0, "per-query scan-entry budget (0 = unlimited)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	if *tenantsF < 1 {
		return fmt.Errorf("-tenants must be at least 1, got %d", *tenantsF)
	}
	cfg := graphulo.ClusterConfig{
		Transport:            *transportF,
		TabletServers:        4,
		MaxConcurrentQueries: *maxQ,
		MaxQueuedQueries:     *maxQueued,
		ScanEntryBudget:      *scanBudget,
	}
	if *serversF != "" {
		cfg.Servers = strings.Split(*serversF, ",")
		cfg.Transport = ""
	}
	db, err := graphulo.Open(cfg)
	if err != nil {
		return err
	}
	defer db.Close()

	g := graphulo.DedupGraph(graphulo.RMAT(graphulo.Graph500(*scaleF, 11)))
	tg, err := db.CreateGraph("LG")
	if err != nil {
		return err
	}
	if err := tg.Ingest(g); err != nil {
		return err
	}
	a, at, _ := tg.Tables()
	fmt.Printf("loadgen: %d workers x %d ops, %d vertices %d edges, %d tenants\n",
		*workersF, *opsF, g.N, len(g.Edges), *tenantsF)

	var (
		mu   sync.Mutex
		lats []time.Duration
		wg   sync.WaitGroup
	)
	errs := make([]error, *workersF)
	start := time.Now()
	for w := 0; w < *workersF; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w%*tenantsF)
			for i := 0; i < *opsF; i++ {
				opStart := time.Now()
				var err error
				switch i % 3 {
				case 0:
					_, err = tg.BFSWithOptions([]int{1}, 2, graphulo.BFSOptions{Tenant: tenant})
				case 1:
					_, err = tg.Jaccard()
				default:
					out := fmt.Sprintf("LC_w%d_%d", w, i)
					if _, err = db.TableMultOpts(at, a, out, graphulo.MultOptions{Semiring: "plus.times", Tenant: tenant}); err == nil {
						err = db.Connector().TableOperations().Delete(out)
					}
				}
				if err != nil {
					errs[w] = fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
				mu.Lock()
				lats = append(lats, time.Since(opStart))
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quantile := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}
	// Admission accounting from the per-query telemetry this run minted.
	type tenantAgg struct {
		queries   int
		queueWait int64
	}
	perTenant := map[string]*tenantAgg{}
	var queueWait int64
	for _, qs := range db.QueryStats() {
		agg := perTenant[qs.Tenant]
		if agg == nil {
			agg = &tenantAgg{}
			perTenant[qs.Tenant] = agg
		}
		agg.queries++
		agg.queueWait += qs.Counters["queue_wait_nanos"]
		queueWait += qs.Counters["queue_wait_nanos"]
	}

	ops := len(lats)
	fmt.Printf("loadgen: %d kernels in %s  qps=%.1f  p50=%s p99=%s  queue-wait/op=%s\n",
		ops, wall.Round(time.Millisecond), float64(ops)/wall.Seconds(),
		quantile(0.50).Round(time.Millisecond), quantile(0.99).Round(time.Millisecond),
		(time.Duration(queueWait) / time.Duration(max(ops, 1))).Round(time.Microsecond))
	tenants := make([]string, 0, len(perTenant))
	for tn := range perTenant {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		agg := perTenant[tn]
		fmt.Printf("loadgen: tenant %-8s queries=%-4d queue-wait=%s\n",
			tn, agg.queries, time.Duration(agg.queueWait).Round(time.Microsecond))
	}
	return nil
}
