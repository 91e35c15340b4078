// Command graphulo runs the library's graph algorithms on generated
// workloads, against the embedded NoSQL cluster or in memory — and can
// run as a standalone tablet server for a multi-process cluster.
//
// Usage:
//
//	graphulo <algorithm> [flags]
//	graphulo serve -listen host:port
//
// Algorithms are listed in the usage line. `trace` runs the mult
// kernel and prints its telemetry span tree (coordinator scans
// and flushes plus per-daemon tablet passes) with per-query counters.
//
// Observability: -metrics-addr serves /metrics (Prometheus text),
// /queries (JSON span trees), and /debug/pprof over HTTP from kernel
// runs and serve-mode daemons alike; -slow-query-threshold logs slow
// kernels as JSON lines (to -slow-query-log or stderr).
//
// The kernel subcommands honour SpRef push-down flags: -row-start /
// -row-end restrict mult, trace and bfs to a row band (only overlapping
// tablets execute the kernel) and -colq-start / -colq-end restrict
// mult's and trace's output columns server-side. Any other subcommand
// given a band flag fails rather than ignoring it.
//
// The -graph flag selects the workload:
//
//	-graph rmat    -scale 10        Graph500 RMAT graph
//	-graph er      -n 500 -m 2000   Erdős–Rényi
//	-graph paper                    the paper's Fig. 1 graph
//	-graph clique  -n 100 -k 8      planted clique
//
// Cluster-backed runs (-db) choose their wire with -transport inproc
// (default) or -transport tcp; -servers host:port,host:port points the
// run at standalone tablet-server processes started with `graphulo
// serve`, so the kernels' tablet→tablet flows cross process boundaries.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"graphulo"
)

var (
	graphKind  = flag.String("graph", "paper", "workload: rmat | er | paper | clique")
	scale      = flag.Int("scale", 8, "RMAT scale")
	nFlag      = flag.Int("n", 200, "vertices (er, clique)")
	mFlag      = flag.Int("m", 800, "edges (er)")
	kFlag      = flag.Int("k", 4, "truss k / clique size / hops / topics")
	seed       = flag.Uint64("seed", 1, "generator seed")
	source     = flag.Int("source", 0, "BFS/SSSP source vertex")
	useDB      = flag.Bool("db", false, "run through the embedded NoSQL cluster where supported")
	transportF = flag.String("transport", "", "cluster wire: inproc (default) or tcp — tcp runs every tablet server on its own socket")
	servers    = flag.String("servers", "", "comma-separated tablet-server endpoints from `graphulo serve` (implies -db and tcp)")
	listen     = flag.String("listen", "127.0.0.1:0", "serve mode: address to listen on")
	dataDir    = flag.String("data-dir", "", "durable cluster directory: graphs built in one invocation are queried in the next (implies -db)")
	rowStart   = flag.String("row-start", "", "restrict mult/trace/bfs to rows >= this key (SpRef push-down; empty = unbounded)")
	rowEnd     = flag.String("row-end", "", "restrict mult/trace/bfs to rows < this key (SpRef push-down; empty = unbounded)")
	colqStart  = flag.String("colq-start", "", "restrict mult/trace to column qualifiers >= this key (empty = unbounded)")
	colqEnd    = flag.String("colq-end", "", "restrict mult/trace to column qualifiers < this key (empty = unbounded)")
	semiringF  = flag.String("semiring", "plus.times", "mult ⊕.⊗ semiring (plus.times, min.plus, max.plus, or.and, max.min)")

	metricsAddr = flag.String("metrics-addr", "", "serve telemetry over HTTP on this address (/metrics, /queries, /debug/pprof); works for kernel runs and serve mode")
	slowQuery   = flag.Duration("slow-query-threshold", 0, "log kernel queries at least this slow as JSON lines (0 disables)")
	slowLogPath = flag.String("slow-query-log", "", "append slow-query lines to this file instead of stderr")

	tenantF     = flag.String("tenant", "", "tenant label for kernel queries: budgets and per-tenant telemetry (empty = \"default\")")
	maxQueries  = flag.Int("max-concurrent-queries", 0, "kernel queries admitted concurrently (0 = default of 64, negative = unlimited)")
	maxQueued   = flag.Int("max-queued-queries", 0, "admission queue depth before queries are rejected outright (0 = default of 256)")
	scanBudget  = flag.Int64("scan-entry-budget", 0, "per-query scan-entry budget; a query exceeding it is cancelled with a budget error (0 = unlimited)")
	writeBudget = flag.Int64("write-byte-budget", 0, "per-query write wire-byte budget; a query exceeding it is cancelled with a budget error (0 = unlimited)")
)

// algorithms lists the subcommands run accepts, as the usage line
// prints them.
const algorithms = "mult trace bfs degrees pagerank eigen katz betweenness closeness hits clustering svd nominate ktruss tricount jaccard nmf sssp communities components info"

// bandHonoured maps each band flag to the subcommands that pass it to
// a kernel.
var bandHonoured = []struct {
	flag string
	val  *string
	by   []string
}{
	{"row-start", rowStart, []string{"mult", "trace", "bfs"}},
	{"row-end", rowEnd, []string{"mult", "trace", "bfs"}},
	{"colq-start", colqStart, []string{"mult", "trace"}},
	{"colq-end", colqEnd, []string{"mult", "trace"}},
}

// checkBands refuses a band flag that algorithm would ignore, naming
// the flag and the subcommands that honour it.
func checkBands(algorithm string) error {
	for _, b := range bandHonoured {
		if *b.val != "" && !slices.Contains(b.by, algorithm) {
			return fmt.Errorf("-%s is honoured only by %s, not %s", b.flag, strings.Join(b.by, ", "), algorithm)
		}
	}
	return nil
}

// openDB starts the embedded cluster, durable when -data-dir is set,
// and returns the graph handle: the persisted graph when it already
// exists in the data dir (skipping re-ingest), a freshly ingested one
// otherwise.
func openDB(g graphulo.Graph) (*graphulo.DB, *graphulo.TableGraph, error) {
	var serverList []string
	if *servers != "" {
		for _, s := range strings.Split(*servers, ",") {
			if s = strings.TrimSpace(s); s != "" {
				serverList = append(serverList, s)
			}
		}
	}
	var slowLog io.Writer = os.Stderr
	if *slowLogPath != "" {
		f, err := os.OpenFile(*slowLogPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, err
		}
		slowLog = f
	}
	db, err := graphulo.Open(graphulo.ClusterConfig{
		DataDir:          *dataDir,
		Transport:        *transportF,
		Servers:          serverList,
		MaxRunsPerTablet: 8, // run bound per tablet, kept by every flush

		MetricsAddr:        *metricsAddr,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       slowLog,

		DefaultTenant:        *tenantF,
		MaxConcurrentQueries: *maxQueries,
		MaxQueuedQueries:     *maxQueued,
		ScanEntryBudget:      *scanBudget,
		WriteByteBudget:      *writeBudget,
	})
	if err != nil {
		return nil, nil, err
	}
	if addr := db.MetricsAddr(); addr != "" {
		fmt.Printf("telemetry on http://%s (/metrics, /queries, /debug/pprof)\n", addr)
	}
	if *dataDir != "" {
		if tg, err := db.OpenGraph("G"); err == nil {
			fmt.Printf("reopened persisted graph from %s\n", *dataDir)
			return db, tg, nil
		}
	}
	tg, err := db.CreateGraph("G")
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	if err := tg.Ingest(g); err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, tg, nil
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphulo <algorithm> [flags]\n")
		fmt.Fprintf(os.Stderr, "algorithms: %s\n", algorithms)
		fmt.Fprintf(os.Stderr, "explain [kernel]: print a kernel's compiled plan with fused groups marked (all kernels when omitted)\n\n")
		flag.PrintDefaults()
	}
	if len(os.Args) < 2 {
		flag.Usage()
		os.Exit(2)
	}
	algorithm := os.Args[1]
	if err := flag.CommandLine.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}
	if algorithm == "serve" {
		if err := serve(); err != nil {
			fmt.Fprintln(os.Stderr, "graphulo:", err)
			os.Exit(1)
		}
		return
	}
	if algorithm == "explain" {
		if err := explain(); err != nil {
			fmt.Fprintln(os.Stderr, "graphulo:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(algorithm); err != nil {
		fmt.Fprintln(os.Stderr, "graphulo:", err)
		os.Exit(1)
	}
}

// explain prints compiled kernel plans with fused groups marked —
// `graphulo explain ktruss` for one kernel, `graphulo explain` for all.
// No cluster is started: the plan constructors are the ones the live
// drivers execute, so the printed trees are the executed trees.
func explain() error {
	kernels := graphulo.ExplainKernels()
	if len(os.Args) > 2 && !strings.HasPrefix(os.Args[2], "-") {
		kernels = []string{os.Args[2]}
	}
	for _, k := range kernels {
		out, err := graphulo.ExplainPlan(k, "A", "C")
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return nil
}

// serve runs a standalone tablet server until SIGINT/SIGTERM: one per
// process, addressed by a coordinator run with -servers.
func serve() error {
	srv, err := graphulo.ListenAndServeTablets(*listen, 0)
	if err != nil {
		return err
	}
	fmt.Printf("tablet server listening on %s\n", srv.Addr())
	if *metricsAddr != "" {
		addr, err := srv.StartTelemetry(*metricsAddr)
		if err != nil {
			srv.Close()
			return err
		}
		fmt.Printf("telemetry on http://%s (/metrics, /queries, /debug/pprof)\n", addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return srv.Close()
}

func makeGraph() graphulo.Graph {
	switch *graphKind {
	case "rmat":
		return graphulo.DedupGraph(graphulo.RMAT(graphulo.Graph500(*scale, *seed)))
	case "er":
		return graphulo.DedupGraph(graphulo.ErdosRenyi(*nFlag, *mFlag, *seed))
	case "clique":
		g, _ := graphulo.PlantedClique(*nFlag, 0.05, *kFlag, *seed)
		return graphulo.DedupGraph(g)
	default:
		return graphulo.PaperGraph()
	}
}

func run(algorithm string) error {
	if err := checkBands(algorithm); err != nil {
		return err
	}
	g := makeGraph()
	adj := graphulo.AdjacencyPat(g)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, len(g.Edges))
	if *dataDir != "" || *servers != "" {
		*useDB = true
	}
	if *rowStart != "" || *rowEnd != "" {
		// Row bands are a server-side kernel option (SpRef push-down);
		// the in-memory BFS takes no band, so these flags imply a
		// cluster-backed run rather than being silently dropped.
		*useDB = true
	}

	switch algorithm {
	case "info":
		deg := graphulo.DegreeCentrality(adj)
		maxD := 0.0
		for _, d := range deg {
			if d > maxD {
				maxD = d
			}
		}
		fmt.Printf("max degree %v, triangles %v\n", maxD, graphulo.TriangleCount(adj))

	case "mult", "trace":
		// C ⊕= Aᵀ·A over the ingested graph — the raw TableMult kernel,
		// honouring the SpRef constraint flags. The
		// trace variant additionally prints the query's span tree and
		// per-query counters after the multiply.
		db, tg, err := openDB(g)
		if err != nil {
			return err
		}
		defer db.Close()
		a, at, _ := tg.Tables()
		n, err := db.TableMultOpts(at, a, "Gsq", graphulo.MultOptions{
			Semiring: *semiringF,
			Constraint: graphulo.ScanConstraint{
				RowStart: *rowStart, RowEnd: *rowEnd,
				ColQStart: *colqStart, ColQEnd: *colqEnd,
			},
		})
		if err != nil {
			return err
		}
		fmt.Printf("TableMult %s·%s → Gsq under %s: %d entries written (server-side)\n", at, a, *semiringF, n)
		reportScanPipeline(db)
		if algorithm == "trace" {
			reportTraces(db)
		}
		return nil

	case "bfs":
		if *useDB {
			db, tg, err := openDB(g)
			if err != nil {
				return err
			}
			defer db.Close()
			levels, err := tg.BFSWithOptions([]int{*source}, *kFlag, graphulo.BFSOptions{
				RowStart: *rowStart, RowEnd: *rowEnd,
			})
			if err != nil {
				return err
			}
			fmt.Printf("visited %d vertices within %d hops (server-side)\n", len(levels), *kFlag)
			reportScanPipeline(db)
			return nil
		}
		levels := graphulo.BFSLevels(adj, *source)
		hist := map[int]int{}
		for _, l := range levels {
			hist[l]++
		}
		fmt.Printf("BFS level histogram from %d: %v\n", *source, hist)

	case "degrees":
		if *useDB {
			db, tg, err := openDB(g)
			if err != nil {
				return err
			}
			defer db.Close()
			degs, err := tg.Degrees()
			if err != nil {
				return err
			}
			fmt.Printf("degrees reduced server-side: %d vertices\n", len(degs))
			reportScanPipeline(db)
			return nil
		}
		printTop("degree", graphulo.DegreeCentrality(adj))

	case "pagerank":
		res := graphulo.PageRank(adj, 0.15, 1e-12, 1000)
		fmt.Printf("converged=%v iterations=%d\n", res.Converged, res.Iterations)
		printTop("pagerank", res.Scores)

	case "eigen":
		res := graphulo.EigenvectorCentrality(adj, 1e-10, 2000)
		fmt.Printf("converged=%v iterations=%d\n", res.Converged, res.Iterations)
		printTop("eigenvector", res.Scores)

	case "katz":
		res := graphulo.KatzCentrality(adj, 0.001, 1e-12, 500)
		fmt.Printf("converged=%v iterations=%d\n", res.Converged, res.Iterations)
		printTop("katz", res.Scores)

	case "betweenness":
		printTop("betweenness", graphulo.BetweennessCentrality(adj))

	case "closeness":
		printTop("closeness", graphulo.ClosenessCentrality(adj))
		printTop("harmonic", graphulo.HarmonicCentrality(adj))

	case "hits":
		res := graphulo.HITS(adj, 1e-10, 2000)
		fmt.Printf("converged=%v iterations=%d\n", res.Converged, res.Iterations)
		printTop("hubs", res.Hubs)
		printTop("authorities", res.Authorities)

	case "clustering":
		printTop("local clustering", graphulo.LocalClustering(adj))
		fmt.Printf("global clustering coefficient: %.4f\n", graphulo.GlobalClustering(adj))

	case "svd":
		res := graphulo.TruncatedSVD(adj, *kFlag, 1e-10, 2000)
		fmt.Printf("top-%d singular values: %.4g (in %d power iterations)\n",
			*kFlag, res.S, res.Iterations)

	case "nominate":
		scores := graphulo.VertexNomination(adj, []int{*source}, 0.15, 500)
		scores[*source] = 0 // hide the cue itself
		printTop("nominated", scores)

	case "ktruss":
		if *useDB {
			db, tg, err := openDB(g)
			if err != nil {
				return err
			}
			defer db.Close()
			truss, err := tg.KTruss(*kFlag)
			if err != nil {
				return err
			}
			fmt.Printf("%d-truss: %d directed entries (server-side)\n", *kFlag, truss.NNZ())
			reportScanPipeline(db)
			return nil
		}
		E := graphulo.Incidence(g)
		truss := graphulo.KTrussEdge(E, *kFlag)
		fmt.Printf("%d-truss keeps %d of %d edges\n", *kFlag, truss.Rows(), E.Rows())

	case "tricount":
		fmt.Printf("triangles: %v\n", graphulo.TriangleCount(adj))

	case "jaccard":
		J := graphulo.Jaccard(adj)
		fmt.Printf("nonzero Jaccard pairs: %d\n", J.NNZ()/2)
		preds := graphulo.LinkPrediction(adj, 5)
		for _, p := range preds {
			fmt.Printf("predicted link (%d,%d) score %.3f\n", p.U, p.V, p.Score)
		}

	case "nmf":
		corpus := graphulo.NewTweets(graphulo.TweetCorpusConfig{NumTweets: 2000, Seed: *seed})
		m, _, _ := corpus.A.Matrix()
		res := graphulo.NMF(m, graphulo.NMFConfig{Topics: *kFlag, MaxIter: 40, Seed: *seed})
		fmt.Printf("NMF k=%d: residual %.2f after %d iterations\n", *kFlag, res.Residual, res.Iterations)

	case "sssp":
		// Re-weight the graph and run Bellman–Ford under min.plus.
		w := weighted(g, *seed)
		dist, neg := graphulo.BellmanFord(w, *source)
		if neg {
			return fmt.Errorf("negative cycle")
		}
		reach := 0
		for _, d := range dist {
			if d < 1e308 {
				reach++
			}
		}
		fmt.Printf("shortest paths from %d reach %d vertices\n", *source, reach)

	case "communities":
		labels := graphulo.LabelPropagation(adj, 100, *seed)
		fmt.Printf("%d communities, modularity %.4f\n",
			graphulo.CommunityCount(labels), graphulo.Modularity(adj, labels))

	case "components":
		cc := graphulo.ConnectedComponents(adj)
		sizes := map[int]int{}
		for _, c := range cc {
			sizes[c]++
		}
		fmt.Printf("%d connected components\n", len(sizes))

	default:
		return fmt.Errorf("unknown algorithm %q", algorithm)
	}
	return nil
}

// reportScanPipeline prints the streaming-scan gauges after a
// cluster-backed run: how many tablet scans ran at once (per-tablet
// parallelism) and the peak entries buffered across scan pipelines (the
// streaming memory bound — wire batches, not table size).
func reportScanPipeline(db *graphulo.DB) {
	wire, rpcs, _, scanned := db.Metrics()
	st := db.ScanMetrics()
	fmt.Printf("scan pipeline: %d RPCs, %d wire bytes, %d entries scanned, max %d tablet scans in flight, peak %d entries buffered\n",
		rpcs, wire, scanned, st.MaxScansInFlight, st.MaxEntriesBuffered)
	fmt.Printf("push-down: %d tablet passes ran, %d tablets pruned by range, %d entries pruned by column band, %d partial products pre-⊕-folded\n",
		st.TabletScans, st.TabletsPrunedByRange, st.EntriesPrunedByRange, st.PartialProductsFolded)
	if *dataDir != "" {
		fmt.Printf("storage: %d block-cache hits, %d misses, %d bloom negatives (%d colq), %d locality blocks skipped, %d major compactions\n",
			st.CacheHits, st.CacheMisses, st.BloomNegatives, st.ColQBloomNegatives, st.LocalityBlocksSkipped, st.MajorCompactions)
		fmt.Printf("ingest: %d memtable freezes, %s write-stall time\n",
			st.MemtableFreezes, time.Duration(st.WriteStallNanos))
	}
}

// reportTraces prints every recorded kernel query: its span tree
// (coordinator scans and flushes, per-daemon tablet passes) and the
// per-query counter mirror with scan-pass latency quantiles.
func reportTraces(db *graphulo.DB) {
	stats := db.QueryStats()
	trees := db.FormatQueryTraces()
	for i, tree := range trees {
		fmt.Print(tree)
		if i < len(stats) {
			q := stats[i]
			fmt.Printf("  counters: %v\n", q.Counters)
			fmt.Printf("  scan pass p50 %v p99 %v over %d passes; write batch p50 %v over %d batches\n",
				q.ScanPassP50, q.ScanPassP99, q.ScanPasses, q.WriteBatchP50, q.WriteBatches)
		}
	}
}

func weighted(g graphulo.Graph, seed uint64) *graphulo.Matrix {
	var ts []graphulo.Triple
	for i, e := range g.Edges {
		w := 1 + float64((uint64(i)*seed+3)%7)
		ts = append(ts, graphulo.Triple{Row: e.U, Col: e.V, Val: w},
			graphulo.Triple{Row: e.V, Col: e.U, Val: w})
	}
	return graphulo.NewMatrix(g.N, g.N, ts, graphulo.MinPlus)
}

func printTop(name string, scores []float64) {
	type vs struct {
		v int
		s float64
	}
	rs := make([]vs, len(scores))
	for i, s := range scores {
		rs[i] = vs{i, s}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].s > rs[j].s })
	n := 5
	if n > len(rs) {
		n = len(rs)
	}
	fmt.Printf("%s top%d:", name, n)
	for _, r := range rs[:n] {
		fmt.Printf(" v%d=%.4g", r.v, r.s)
	}
	fmt.Println()
}
