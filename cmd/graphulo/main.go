// Command graphulo runs the paper's graph kernels on generated
// workloads inside the embedded NoSQL cluster — and can run as a
// standalone tablet server for a multi-process cluster.
//
// Usage:
//
//	graphulo <algorithm> [flags]
//	graphulo serve -listen host:port
//
// Algorithms are listed in the usage line. Each table kernel runs its
// table driver on the cluster, prints that answer beside the in-memory
// reference's, and fails when the two differ. `trace` runs the mult
// kernel and prints its telemetry span tree (coordinator scans and
// flushes plus per-daemon tablet passes) with per-query counters.
//
// Observability: -metrics-addr serves /metrics (Prometheus text),
// /queries (JSON span trees), and /debug/pprof over HTTP from kernel
// runs and serve-mode daemons alike; -slow-query-threshold logs slow
// kernels as JSON lines (to -slow-query-log or stderr).
//
// The SpRef push-down is one flag, -band ROWS[,COLS], each part a
// half-open START:END key band whose empty bound is unbounded, as in
// D4M's A(rows, cols): -band v00000010:v00000150 or -band :,:v00000100.
// The rows part restricts mult, trace and bfs to a row band (only
// overlapping tablets execute the kernel); the cols part restricts
// mult's and trace's output columns server-side. Any other subcommand
// given a band part fails rather than ignoring it.
//
// The -graph flag selects the workload:
//
//	-graph rmat    -scale 10        Graph500 RMAT graph
//	-graph er      -n 500 -m 2000   Erdős–Rényi
//	-graph paper                    the paper's Fig. 1 graph
//	-graph clique  -n 100 -k 8      planted clique
//
// A -scale, -n or -m given with a -graph that does not read it is an
// error, not a silent no-op.
//
// The cluster is in memory unless -data-dir makes it durable (a graph
// built in one run is reopened in the next). Its wire is -transport
// inproc (default) or tcp; -servers host:port,host:port points the run
// at standalone tablet-server processes started with `graphulo serve`,
// so the kernels' tablet→tablet flows cross process boundaries.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
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
	source     = flag.Int("source", 0, "BFS source vertex")
	transportF = flag.String("transport", "", "cluster wire: inproc (default) or tcp — tcp runs every tablet server on its own socket")
	servers    = flag.String("servers", "", "comma-separated tablet-server endpoints from `graphulo serve` (tcp)")
	listen     = flag.String("listen", "127.0.0.1:0", "serve mode: address to listen on")
	dataDir    = flag.String("data-dir", "", "durable cluster directory: graphs built in one invocation are queried in the next")
	semiringF  = flag.String("semiring", "plus.times", "mult ⊕.⊗ semiring (plus.times, min.plus, max.plus, or.and, max.min)")

	metricsAddr = flag.String("metrics-addr", "", "serve telemetry over HTTP on this address (/metrics, /queries, /debug/pprof); works for kernel runs and serve mode")
	slowQuery   = flag.Duration("slow-query-threshold", 0, "log kernel queries at least this slow as JSON lines (0 disables)")
	slowLogPath = flag.String("slow-query-log", "", "append slow-query lines to this file instead of stderr")

	tenantF     = flag.String("tenant", "", "tenant label for kernel queries: budgets and per-tenant telemetry (empty = \"default\")")
	scanBudget  = flag.Int64("scan-entry-budget", 0, "per-query scan-entry budget; a query exceeding it is cancelled with a budget error (0 = unlimited)")
	writeBudget = flag.Int64("write-byte-budget", 0, "per-query write wire-byte budget; a query exceeding it is cancelled with a budget error (0 = unlimited)")
)

// The subcommands run accepts, as the usage line prints them: the
// table kernels, each checked against its in-memory reference, and the
// raw multiply.
const (
	tableKernels = "bfs degrees ktruss pagerank jaccard tricount nmf"
	multiply     = "mult trace"
	algorithms   = tableKernels + " " + multiply
)

// movedToReproduce names the former in-memory subcommands that are now
// rows of `reproduce -exp table1`; run's error for an unknown name
// lists them.
const movedToReproduce = "eigen katz hits clustering svd closeness communities components betweenness nominate sssp"

// band is -band's SpRef sub-array, in the kernels' own band type.
var band graphulo.ScanConstraint

func init() {
	flag.Func("band", "SpRef push-down `ROWS[,COLS]`, each part START:END (half-open; an empty bound is unbounded): rows restrict mult/trace/bfs, cols restrict mult/trace",
		func(s string) (err error) {
			band, err = parseBand(s)
			return err
		})
}

// parseBand parses -band's ROWS[,COLS], each part START:END, into a
// band; the empty string is the whole array.
func parseBand(s string) (graphulo.ScanConstraint, error) {
	var c graphulo.ScanConstraint
	if s == "" {
		return c, nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		bounds := strings.Split(p, ":")
		if len(parts) > 2 || len(bounds) != 2 {
			return graphulo.ScanConstraint{}, fmt.Errorf("-band %q: want ROWS[,COLS], each part START:END", s)
		}
		if i == 0 {
			c.RowStart, c.RowEnd = bounds[0], bounds[1]
		} else {
			c.ColQStart, c.ColQEnd = bounds[0], bounds[1]
		}
	}
	return c, nil
}

// checkBands refuses a -band part that algorithm would ignore, naming
// the part and the subcommands that honour it.
func checkBands(algorithm string) error {
	for _, p := range []struct {
		part string
		set  bool
		by   []string
	}{
		{"rows", band.RowStart != "" || band.RowEnd != "", []string{"mult", "trace", "bfs"}},
		{"cols", band.ColQStart != "" || band.ColQEnd != "", []string{"mult", "trace"}},
	} {
		if p.set && !slices.Contains(p.by, algorithm) {
			return fmt.Errorf("-band's %s part is honoured only by %s, not %s", p.part, strings.Join(p.by, ", "), algorithm)
		}
	}
	return nil
}

// checkWorkload refuses a graph-shape flag set on the command line
// that the chosen -graph does not read, naming the graphs that do. -k
// and -seed are never refused: kernels read them too.
func checkWorkload(fs *flag.FlagSet) error {
	readBy := map[string][]string{"scale": {"rmat"}, "n": {"er", "clique"}, "m": {"er"}}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if by, ok := readBy[f.Name]; ok && err == nil && !slices.Contains(by, *graphKind) {
			err = fmt.Errorf("-%s is read only by -graph %s, not -graph %s", f.Name, strings.Join(by, ", "), *graphKind)
		}
	})
	return err
}

// openDB starts the embedded cluster: in memory, durable when -data-dir
// is set, or over the -servers daemons.
func openDB() (*graphulo.DB, error) {
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
			return nil, err
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

		DefaultTenant:   *tenantF,
		ScanEntryBudget: *scanBudget,
		WriteByteBudget: *writeBudget,
	})
	if err != nil {
		return nil, err
	}
	if addr := db.MetricsAddr(); addr != "" {
		fmt.Printf("telemetry on http://%s (/metrics, /queries, /debug/pprof)\n", addr)
	}
	return db, nil
}

// openGraph returns the graph handle: the persisted graph when it
// already exists in the data dir (skipping re-ingest), a freshly
// ingested one otherwise.
func openGraph(db *graphulo.DB, g graphulo.Graph) (*graphulo.TableGraph, error) {
	if *dataDir != "" {
		if tg, err := db.OpenGraph("G"); err == nil {
			fmt.Printf("reopened persisted graph from %s\n", *dataDir)
			return tg, nil
		}
	}
	tg, err := db.CreateGraph("G")
	if err != nil {
		return nil, err
	}
	return tg, tg.Ingest(g)
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: graphulo <algorithm> [flags]\n")
		fmt.Fprintf(os.Stderr, "table kernels, checked against the in-memory reference: %s\n", tableKernels)
		fmt.Fprintf(os.Stderr, "table multiply: %s\n", multiply)
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
	var err error
	switch algorithm {
	case "serve":
		err = serve()
	case "explain":
		err = explain()
	default:
		if err = checkWorkload(flag.CommandLine); err == nil {
			err = run(algorithm)
		}
	}
	if err != nil {
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

// makeGraph builds the -graph workload; any other -graph is an error.
func makeGraph() (graphulo.Graph, error) {
	switch *graphKind {
	case "rmat":
		return graphulo.DedupGraph(graphulo.RMAT(graphulo.Graph500(*scale, *seed))), nil
	case "er":
		return graphulo.DedupGraph(graphulo.ErdosRenyi(*nFlag, *mFlag, *seed)), nil
	case "paper":
		return graphulo.PaperGraph(), nil
	case "clique":
		g, _ := graphulo.PlantedClique(*nFlag, 0.05, *kFlag, *seed)
		return graphulo.DedupGraph(g), nil
	}
	return graphulo.Graph{}, fmt.Errorf("-graph %q is not one of rmat er paper clique", *graphKind)
}

func run(algorithm string) error {
	if err := checkBands(algorithm); err != nil {
		return err
	}
	if !slices.Contains(strings.Fields(algorithms), algorithm) {
		return fmt.Errorf("unknown algorithm %q (%s are rows of `reproduce -exp table1`)", algorithm, movedToReproduce)
	}
	g, err := makeGraph()
	if err != nil {
		return err
	}
	if *source < 0 || *source >= g.N {
		return fmt.Errorf("-source %d is not a vertex of the %d-vertex graph", *source, g.N)
	}
	adj := graphulo.AdjacencyPat(g)
	fmt.Printf("graph: %d vertices, %d edges\n", g.N, len(g.Edges))

	db, err := openDB()
	if err != nil {
		return err
	}
	defer db.Close()
	var tg *graphulo.TableGraph
	if algorithm != "nmf" {
		if tg, err = openGraph(db, g); err != nil {
			return err
		}
	}
	var cluster, ref answer
	tol := 0.0
	switch algorithm {
	case "mult", "trace":
		// C ⊕= Aᵀ·A over the ingested graph — the raw TableMult kernel,
		// honouring -band. A is its own transpose, so at and a are one
		// table. The trace variant also prints the query's span tree
		// and per-query counters.
		a, at, _ := tg.Tables()
		n, err := db.TableMultOpts(at, a, "Gsq", graphulo.MultOptions{
			Semiring:   *semiringF,
			Constraint: band,
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
		levels, err := tg.BFSWithOptions([]int{*source}, *kFlag, graphulo.BFSOptions{
			RowStart: band.RowStart, RowEnd: band.RowEnd,
		})
		if err != nil {
			return err
		}
		fmt.Printf("visited %d vertices within %d hops (server-side)\n", len(levels), *kFlag)
		cluster = answer{}
		for v, l := range levels {
			cluster[v] = float64(l)
		}
		ref = bfsReference(adj)

	case "degrees":
		degs, err := tg.Degrees()
		if err != nil {
			return err
		}
		fmt.Printf("degrees reduced server-side: %d vertices\n", len(degs))
		cluster, ref = degs, onEdges(adj, graphulo.DegreeCentrality(adj))

	case "ktruss":
		truss, err := tg.KTruss(*kFlag)
		if err != nil {
			return err
		}
		fmt.Printf("%d-truss: %d directed entries (server-side)\n", *kFlag, truss.NNZ())
		cluster, ref = assocCells(truss), matrixCells(graphulo.KTrussAdj(adj, *kFlag))

	case "pagerank":
		ranks, iters, err := tg.PageRank(0.15, 1e-12, 1000)
		if err != nil {
			return err
		}
		fmt.Printf("PageRank: %d power iterations (server-side)\n", iters)
		// The table holds only vertices with an edge, so both sides
		// compare ranks normalised over that support.
		cluster = normalised(ranks)
		ref = normalised(onEdges(adj, graphulo.PageRank(adj, 0.15, 1e-12, 1000).Scores))
		tol = 1e-6

	case "jaccard":
		J, err := tg.Jaccard()
		if err != nil {
			return err
		}
		fmt.Printf("nonzero Jaccard pairs: %d (server-side)\n", J.NNZ())
		cluster, ref = assocCells(J), matrixCells(graphulo.Triu(graphulo.Jaccard(adj), 1))
		tol = 1e-12

	case "tricount":
		n, err := tg.TriangleCount()
		if err != nil {
			return err
		}
		cluster, ref = answer{"triangles": n}, answer{"triangles": graphulo.TriangleCount(adj)}

	case "nmf":
		corpus := graphulo.NewTweets(graphulo.TweetCorpusConfig{NumTweets: 2000, Seed: *seed})
		cfg := graphulo.NMFConfig{Topics: *kFlag, MaxIter: 40, Seed: *seed}
		if err := db.WriteAssoc("Tweets", corpus.A); err != nil {
			return err
		}
		res, err := db.NMFTopics("Tweets", "TweetsW", "TweetsH", cfg)
		if err != nil {
			return err
		}
		fmt.Printf("NMF k=%d: residual %.2f after %d iterations (table driver)\n", *kFlag, res.Residual, res.Iterations)
		m, _, _ := corpus.A.Matrix()
		cluster, ref = answer{"residual": res.Residual}, answer{"residual": graphulo.NMF(m, cfg).Residual}
		tol = 1e-6
	}
	reportScanPipeline(db)
	return checkReference(algorithm, cluster, ref, tol)
}

// answer is a kernel's result keyed by vertex or by "row,col" cell: the
// one shape checkReference compares.
type answer map[string]float64

// String summarises an answer for the side-by-side line: its value
// when it has one key, otherwise its size and sum.
func (a answer) String() string {
	sum := 0.0
	for _, v := range a {
		sum += v
	}
	if len(a) == 1 {
		return fmt.Sprintf("%.10g", sum)
	}
	return fmt.Sprintf("%d values summing to %.10g", len(a), sum)
}

// checkReference prints a kernel's cluster answer beside its in-memory
// reference and returns an error naming the kernel unless both hold the
// same keys and every value agrees to within tol·max(1, |reference|):
// absolute for values up to 1, relative above.
func checkReference(kernel string, cluster, ref answer, tol float64) error {
	fmt.Printf("%s: cluster %v; in-memory reference %v\n", kernel, cluster, ref)
	for _, side := range []answer{ref, cluster} {
		for k := range side {
			got, inCluster := cluster[k]
			want, inRef := ref[k]
			if !inCluster || !inRef || !(math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))) {
				return fmt.Errorf("%s: at %s the cluster answer has %v (present: %v), the in-memory reference %v (present: %v)",
					kernel, k, got, inCluster, want, inRef)
			}
		}
	}
	return nil
}

// bfsReference is BFSLevels from -source cut at -k hops, on the
// subgraph the row band induces (its vertices and the edges between
// them): the graph the table BFS walks.
func bfsReference(adj *graphulo.Matrix) answer {
	inBand := func(v int) bool {
		key := graphulo.VertexName(v)
		return key >= band.RowStart && (band.RowEnd == "" || key < band.RowEnd)
	}
	var band []graphulo.Triple
	for _, t := range adj.Triples() {
		if inBand(t.Row) && inBand(t.Col) {
			band = append(band, t)
		}
	}
	ref := answer{}
	for v, l := range graphulo.BFSLevels(graphulo.NewMatrix(adj.Rows(), adj.Cols(), band, graphulo.PlusTimes), *source) {
		if l >= 0 && l <= *kFlag && inBand(v) {
			ref[graphulo.VertexName(v)] = float64(l)
		}
	}
	return ref
}

// onEdges keys per-vertex scores by vertex name, keeping the vertices
// that have an edge: the adjacency table holds no row for the others.
func onEdges(adj *graphulo.Matrix, scores []float64) answer {
	deg := graphulo.DegreeCentrality(adj)
	a := answer{}
	for v, s := range scores {
		if deg[v] > 0 {
			a[graphulo.VertexName(v)] = s
		}
	}
	return a
}

// normalised scales an answer to sum to 1.
func normalised(a answer) answer {
	sum := 0.0
	for _, v := range a {
		sum += v
	}
	for k := range a {
		a[k] /= sum
	}
	return a
}

// assocCells keys an associative array's cells by "row,col".
func assocCells(a *graphulo.Assoc) answer {
	cells := answer{}
	for _, e := range a.Entries() {
		cells[e.Row+","+e.Col] = e.Val
	}
	return cells
}

// matrixCells keys a vertex-indexed matrix's stored cells as assocCells
// keys the table's.
func matrixCells(m *graphulo.Matrix) answer {
	cells := answer{}
	for _, t := range m.Triples() {
		cells[graphulo.VertexName(t.Row)+","+graphulo.VertexName(t.Col)] = t.Val
	}
	return cells
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
