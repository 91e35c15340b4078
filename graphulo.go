// Package graphulo is a Go reproduction of "Graphulo: Linear Algebra
// Graph Kernels for NoSQL Databases" (Gadepally et al., 2015): GraphBLAS
// kernels — SpGEMM, SpM{Sp}V, SpEWiseX, SpRef, SpAsgn, Scale, Apply,
// Reduce — over sparse matrices and associative arrays, executed either
// in memory or inside an embedded Accumulo-style NoSQL cluster through
// server-side iterators.
//
// Three layers:
//
//   - In-memory kernels and algorithms: Matrix/Assoc types with the
//     paper's §III algorithms (BFS, centrality, k-truss, Jaccard, NMF,
//     shortest paths), all semiring-generic.
//   - The embedded cluster: Open starts a MiniCluster; TableGraph stores
//     a graph in adjacency tables and runs the same algorithms with the
//     heavy kernels executing server-side (TableMult, RowReduce, Apply).
//   - Generators: RMAT/Graph500 power-law graphs, Erdős–Rényi,
//     planted cliques, the paper's Fig. 1 example, and the synthetic
//     tweet corpus used for the Fig. 3 topic-modeling experiment.
//
// # Execution model
//
// Server-side kernels follow the paper's tablet-server data flow
// (§I.A, §IV): a kernel is a scan over the hosted table whose iterator
// stack does the work — TwoTableIterator aligns the remote operand and
// emits ⊗ products, RemoteWriteIterator batches them into the result
// table — and only monitoring entries return to the client. Scans
// execute as a streaming pipeline: each tablet runs its share of the
// stack where it lives, up to ClusterConfig.ScanParallelism tablets
// concurrently, shipping results to the consumer one wire batch at a
// time with backpressure. Memory is therefore bounded by wire batches ×
// parallelism on every side — a whole-table TableMult never holds a
// table in client or server memory — and a pre-split table's kernel
// passes run on multiple cores at once, which is how the paper's
// kernels scale with the number of tablet servers. The
// ScanStats.MaxScansInFlight and ScanStats.MaxEntriesBuffered high-water
// marks make both properties observable.
//
// Every batch in that flow crosses a transport between client and
// tablet server. ClusterConfig.Transport selects the wire: "inproc"
// (default) keeps the servers in-process behind the serialised codec,
// "tcp" gives each tablet server its own socket, and
// ClusterConfig.Servers points the cluster at standalone tablet-server
// processes started with ListenAndServeTablets (or `graphulo serve`),
// so TableMult's tablet→tablet partial products cross process — or
// machine — boundaries like the paper's Accumulo deployment. Kernels
// produce identical results on every transport.
//
// # Persistence
//
// By default the cluster is in-memory and vanishes at process exit.
// Setting ClusterConfig.DataDir makes it durable, mirroring the
// Accumulo deployment the paper runs on: under the directory live a
// MANIFEST (tables, splits, iterator settings, per-tablet rfile lists,
// and the logical clock), wal/ (per-tablet segmented write-ahead logs,
// one CRC-guarded record per acknowledged write batch), and rf/
// (immutable block-indexed rfiles written by compaction). Open on the
// same directory recovers everything: the manifest rebuilds tables and
// their on-disk runs, then WAL replay restores writes that were never
// flushed — including after a crash, where replay stops cleanly at the
// last record whose checksum verifies. Use OpenGraph to reattach to a
// recovered TableGraph, and Close for a clean shutdown.
//
// The durable read path is served through a shared block cache (each
// rfile block is read, CRC-checked, and decoded once while resident)
// and per-rfile bloom filters over rows (single-row reads skip files
// that cannot contain the row); ClusterConfig.MaxRunsPerTablet
// additionally bounds per-tablet run counts — scan merge width — on
// every tablet, in memory or durable: a flush that leaves a tablet over
// the bound folds a size tier of its runs, one merge at a time per
// table. DB.ScanMetrics exposes all of it: cache hits and misses,
// bloom negatives, and major compaction counts.
package graphulo

import (
	"fmt"
	"time"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/assoc"
	"graphulo/internal/core"
	"graphulo/internal/gen"
	"graphulo/internal/sched"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
	"graphulo/internal/telemetry"
)

// Re-exported core types. Aliases keep one set of method docs while
// letting downstream code name the types.
type (
	// Matrix is a sparse CSR matrix with semiring-generic kernels.
	Matrix = sparse.Matrix
	// Triple is a (row, col, value) coordinate entry.
	Triple = sparse.Triple
	// Dense is a small dense matrix (NMF factors).
	Dense = sparse.Dense
	// Vector is a sparse vector for SpMSpV.
	Vector = sparse.Vector
	// Assoc is an associative array: a sparse matrix with string keys.
	Assoc = assoc.Assoc
	// AssocEntry is one (row key, col key, value) entry.
	AssocEntry = assoc.Entry
	// Semiring is the (⊕, ⊗, 0, 1) algebra kernels are generic over.
	Semiring = semiring.Semiring
	// Monoid is an associative operator with identity, used by Reduce.
	Monoid = semiring.Monoid
	// UnaryOp transforms values under Apply.
	UnaryOp = semiring.UnaryOp
	// Graph is an edge-list graph from the generators.
	Graph = gen.Graph
	// Edge is one edge of a Graph.
	Edge = gen.Edge
	// NMFResult carries an NMF factorisation (Algorithms 3/5).
	NMFResult = algo.NMFResult
	// NMFConfig parameterises NMF.
	NMFConfig = algo.NMFConfig
	// PredictedLink is a link-prediction candidate.
	PredictedLink = algo.PredictedLink
	// TweetCorpus is the synthetic Fig. 3 workload.
	TweetCorpus = gen.TweetCorpus
	// TweetCorpusConfig sizes the synthetic corpus.
	TweetCorpusConfig = gen.TweetCorpusConfig
	// RMATConfig parameterises the RMAT generator.
	RMATConfig = gen.RMATConfig
	// SVDResult holds a truncated singular value decomposition.
	SVDResult = algo.SVDResult
	// HITSResult holds hub and authority scores.
	HITSResult = algo.HITSResult
	// MultOptions configures the server-side TableMult kernel: semiring,
	// SpRef constraint, and fold-stage budget.
	MultOptions = core.MultOptions
	// ScanConstraint restricts a kernel to a sub-associative-array (the
	// paper's SpRef): a row band pushed into the scan so only
	// overlapping tablets execute, plus an optional column-qualifier
	// band filtered server-side.
	ScanConstraint = core.ScanConstraint
	// BFSOptions configures the server-side AdjBFS kernel (degree
	// filtering and the row-band sub-graph constraint).
	BFSOptions = core.AdjBFSOptions
)

// Standard semirings and monoids.
var (
	PlusTimes = semiring.PlusTimes
	MinPlus   = semiring.MinPlus
	MaxMin    = semiring.MaxMin

	PlusMonoid = semiring.PlusMonoid
)

// In-memory kernel surface (the GraphBLAS set from §I).
var (
	NewMatrix     = sparse.NewFromTriples
	SpGEMM        = sparse.SpGEMM
	SpMV          = sparse.SpMV
	SpMSpV        = sparse.SpMSpV
	EWiseAdd      = sparse.EWiseAdd
	EWiseMult     = sparse.EWiseMult
	SpRef         = sparse.SpRef
	SpAsgn        = sparse.SpAsgn
	Scale         = sparse.Scale
	Apply         = sparse.Apply
	Reduce        = sparse.Reduce
	ReduceRows    = sparse.ReduceRows
	Transpose     = sparse.Transpose
	Triu          = sparse.Triu
	NewAssoc      = assoc.New
	AssocAdd      = assoc.Add
	AssocMultiply = assoc.Multiply
)

// Graph algorithms (§III; one or more per Table I class).
var (
	BFSLevels             = algo.BFSLevels
	ConnectedComponents   = algo.ConnectedComponents
	DegreeCentrality      = algo.DegreeCentrality
	EigenvectorCentrality = algo.EigenvectorCentrality
	KatzCentrality        = algo.KatzCentrality
	PageRank              = algo.PageRank
	BetweennessCentrality = algo.BetweennessCentrality
	KTrussEdge            = algo.KTrussEdge
	KTrussAdj             = algo.KTrussAdj
	TriangleCount         = algo.TriangleCount
	Jaccard               = algo.Jaccard
	JaccardDense          = algo.JaccardDense
	LinkPrediction        = algo.LinkPrediction
	NMF                   = algo.NMF
	InverseDense          = algo.InverseDense
	TopTerms              = algo.TopTerms
	AssignTopics          = algo.AssignTopics
	TopicPurity           = algo.TopicPurity
	LabelPropagation      = algo.LabelPropagation
	Modularity            = algo.Modularity
	CommunityCount        = algo.CommunityCount
	TruncatedSVD          = algo.TruncatedSVD
	VertexNomination      = algo.VertexNomination
	ClosenessCentrality   = algo.ClosenessCentrality
	HarmonicCentrality    = algo.HarmonicCentrality
	HITS                  = algo.HITS
	LocalClustering       = algo.LocalClusteringCoefficient
	GlobalClustering      = algo.GlobalClusteringCoefficient
	BellmanFord           = algo.BellmanFord
	Dijkstra              = algo.Dijkstra
	APSP                  = algo.APSP
	FloydWarshall         = algo.FloydWarshall
	Johnson               = algo.Johnson
)

// Generators.
var (
	RMAT          = gen.RMAT
	Graph500      = gen.Graph500
	ErdosRenyi    = gen.ErdosRenyi
	PlantedClique = gen.PlantedClique
	PaperGraph    = gen.PaperGraph
	AdjacencyPat  = gen.AdjacencyPattern
	Incidence     = gen.Incidence
	DedupGraph    = gen.Dedup
	NewTweets     = gen.NewTweetCorpus
)

// ClusterConfig sizes the embedded NoSQL cluster; see accumulo.Config
// for every field and its default.
type ClusterConfig = accumulo.Config

// AdmissionError is the error a kernel call fails with (wrapped — use
// errors.As) when the cluster's admission queue is full: the call never
// started and moved no data. See ClusterConfig.MaxConcurrentQueries and
// MaxQueuedQueries.
type AdmissionError = sched.AdmissionError

// BudgetError is the error a kernel call fails with (wrapped — use
// errors.As) when it exhausts its per-query scan-entry or write-byte
// budget. See ClusterConfig.ScanEntryBudget and WriteByteBudget.
type BudgetError = sched.BudgetError

// TabletServer is a standalone tablet-server endpoint: start one per
// process (or machine) with ListenAndServeTablets, then point
// ClusterConfig.Servers at the addresses. `graphulo serve` wraps it.
type TabletServer = accumulo.TabletServer

// ListenAndServeTablets starts a standalone tablet server on addr
// (host:port; "" picks an ephemeral loopback port). memLimit bounds
// each hosted tablet's memtable (0 = default).
var ListenAndServeTablets = accumulo.ListenAndServeTablets

// DB is a handle to an embedded Graphulo cluster.
type DB struct {
	cluster *accumulo.MiniCluster
	conn    *accumulo.Connector
}

// Open starts an embedded mini-cluster. With cfg.DataDir set it opens
// the durable data directory, recovering all tables, splits, iterator
// settings, and data (on-disk rfiles plus write-ahead-log replay for
// writes that were never flushed, e.g. after a crash).
func Open(cfg ClusterConfig) (*DB, error) {
	mc, err := accumulo.OpenMiniCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &DB{cluster: mc, conn: mc.Connector()}, nil
}

// Close shuts the cluster down cleanly. For a durable cluster it
// persists the manifest and syncs and closes every write-ahead log;
// for an in-memory cluster it is a no-op.
func (db *DB) Close() error { return db.cluster.Close() }

// Connector exposes the low-level Accumulo-style client for advanced
// use (table ops, custom scans, iterator attachment).
func (db *DB) Connector() *accumulo.Connector { return db.conn }

// Metrics returns cumulative wire/RPC/entry counters.
func (db *DB) Metrics() (wireBytes, rpcs, written, scanned int64) {
	st := &db.cluster.Telemetry().Stats
	return st.Get(telemetry.WireBytes), st.Get(telemetry.RPCs),
		st.Get(telemetry.EntriesWritten), st.Get(telemetry.EntriesScanned)
}

// ScanStats snapshots the read-path metrics: the streaming-pipeline
// gauges plus the storage-subsystem counters of a durable cluster
// (block cache, bloom filters, background major compaction).
type ScanStats struct {
	// ScansInFlight gauges tablet scan workers currently executing;
	// MaxScansInFlight is its high-water mark (evidence of per-tablet
	// parallelism).
	ScansInFlight    int64
	MaxScansInFlight int64
	// MaxEntriesBuffered is the high-water mark of entries buffered
	// across scan pipelines — the streaming memory bound.
	MaxEntriesBuffered int64
	// CacheHits/CacheMisses count rfile block-cache lookups: a hit
	// serves a parsed block from memory, a miss pays the disk read,
	// CRC check, and validating parse.
	CacheHits   int64
	CacheMisses int64
	// BloomNegatives counts single-row seeks answered by a bloom
	// filter without touching a data block.
	BloomNegatives int64
	// ColQBloomNegatives counts cell-confined seeks (edge existence
	// probes, single-cell reads) answered by a (row, column-qualifier)
	// bloom filter without touching a data block.
	ColQBloomNegatives int64
	// LocalityBlocksSkipped counts rfile data blocks a family-constrained
	// scan skipped because the v4 locality-group directory placed them in
	// a column family outside the scan's band — the push-down savings of
	// family-partitioned rfiles, measured in blocks never read or decoded.
	LocalityBlocksSkipped int64
	// MemtableFreezes counts memtables frozen and handed to background
	// flush; WriteStallNanos totals the time writers spent stalled on
	// flush backpressure (frozen-memtable queue full). A rising stall
	// total means ingest outruns the flush pipeline.
	MemtableFreezes int64
	WriteStallNanos int64
	// MajorCompactions counts completed major compactions, manual ones
	// and the size-tiered merges that keep the run bound alike.
	MajorCompactions int64
	// TabletScans counts tablet scan passes that actually executed an
	// iterator stack; TabletsPrunedByRange counts tablets skipped
	// because a scan's pushed-down row ranges did not overlap their row
	// band. Together they make SpRef range push-down observable: a
	// banded kernel over a pre-split table shows TabletScans equal to
	// the overlapping tablets only.
	TabletScans          int64
	TabletsPrunedByRange int64
	// EntriesPrunedByRange counts entries dropped server-side by range
	// filters (the column-qualifier band) before reaching kernel stages
	// or the wire.
	EntriesPrunedByRange int64
	// PartialProductsFolded counts ⊗ partial products absorbed by the
	// fold stage (⊕-folded into a buffered output cell) instead of
	// crossing the write path or the wire individually.
	PartialProductsFolded int64
	// ScratchTablesCreated counts intermediate tables materialised by
	// kernel drivers — each one a write-then-rescan round-trip. The fused
	// kernel plans exist to keep this low: kTruss creates one round
	// table per peel round (its support, written server-side),
	// PageRank one (the rank vector), and Degrees, Jaccard and
	// TriangleCount none.
	ScratchTablesCreated int64
}

// ScanMetrics snapshots the read-path gauges and counters — the typed
// view of the process counter block; the storage fields are zero for an
// in-memory cluster.
func (db *DB) ScanMetrics() ScanStats {
	k := db.cluster.Telemetry().Stats.Counts()
	return ScanStats{
		ScansInFlight:      k[telemetry.ScansInFlight],
		MaxScansInFlight:   k[telemetry.MaxScansInFlight],
		MaxEntriesBuffered: k[telemetry.MaxEntriesBuffered],
		CacheHits:          k[telemetry.CacheHits],
		CacheMisses:        k[telemetry.CacheMisses],
		BloomNegatives:     k[telemetry.BloomNegatives],
		ColQBloomNegatives: k[telemetry.ColQBloomNegatives],

		LocalityBlocksSkipped: k[telemetry.LocalityBlocksSkipped],
		MemtableFreezes:       k[telemetry.MemtableFreezes],
		WriteStallNanos:       k[telemetry.WriteStallNanos],
		MajorCompactions:      k[telemetry.MajorCompactions],

		TabletScans:           k[telemetry.TabletScans],
		TabletsPrunedByRange:  k[telemetry.TabletsPrunedByRange],
		EntriesPrunedByRange:  k[telemetry.EntriesPrunedByRange],
		PartialProductsFolded: k[telemetry.PartialProductsFolded],
		ScratchTablesCreated:  k[telemetry.ScratchTablesCreated],
	}
}

// QueryStats is the per-query mirror of the global counters: one record
// per kernel call (TableMult, OneTable, AdjBFS, kTruss, Jaccard,
// TriangleCount, PageRank, …), carrying the counters that call alone
// moved plus latency quantiles from its fixed-bucket histograms.
type QueryStats struct {
	// TraceID is the query's trace id (hex), shared by every tablet
	// pass — local or on a remote daemon — the kernel triggered.
	TraceID string
	// Kernel names the kernel that minted the query.
	Kernel string
	// Tenant is the tenant label the query was admitted under.
	Tenant string
	// Start and Duration bound the kernel call end-to-end. Duration is
	// the elapsed time so far for a still-running query.
	Start    time.Time
	Duration time.Duration
	// Done is false while the kernel is still executing; Err carries
	// the kernel's error, if it finished with one.
	Done bool
	Err  string
	// Counters maps counter names (the snake_case names /metrics uses,
	// e.g. "entries_scanned", "partial_products_folded") to the amounts
	// this query moved.
	Counters map[string]int64
	// ScanPassP50/P99 are latency quantiles over the query's tablet
	// scan passes; WriteBatchP50/P99 over its write batches. Quantiles
	// are upper bucket bounds of the fixed-bucket histogram.
	ScanPassP50, ScanPassP99     time.Duration
	WriteBatchP50, WriteBatchP99 time.Duration
	// ScanPasses and WriteBatches count the histogram observations.
	ScanPasses, WriteBatches int64
	// Spans is the number of spans recorded in the query's trace
	// (coordinator-side scans plus per-daemon tablet passes).
	Spans int
}

// QueryStats returns recent kernel queries, newest first, including any
// still in flight. The window is bounded (the 64 most recently finished
// queries).
func (db *DB) QueryStats() []QueryStats {
	snaps := db.cluster.Telemetry().Snapshot()
	out := make([]QueryStats, 0, len(snaps))
	for _, s := range snaps {
		counters := map[string]int64{}
		for c, v := range s.Stats {
			if v != 0 {
				counters[telemetry.Counter(c).String()] = v
			}
		}
		out = append(out, QueryStats{
			TraceID:       s.Trace,
			Kernel:        s.Kernel,
			Tenant:        s.Tenant,
			Start:         s.Start,
			Duration:      s.Duration,
			Done:          s.Done,
			Err:           s.Err,
			Counters:      counters,
			ScanPassP50:   s.ScanPass.Quantile(0.50),
			ScanPassP99:   s.ScanPass.Quantile(0.99),
			WriteBatchP50: s.WriteBatch.Quantile(0.50),
			WriteBatchP99: s.WriteBatch.Quantile(0.99),
			ScanPasses:    s.ScanPass.Count,
			WriteBatches:  s.WriteBatch.Count,
			Spans:         len(s.Spans),
		})
	}
	return out
}

// MetricsAddr reports the telemetry endpoint's bound address, or ""
// when ClusterConfig.MetricsAddr was unset.
func (db *DB) MetricsAddr() string { return db.cluster.TelemetryAddr() }

// FormatQueryTraces renders recent kernel queries' span trees as
// indented text, newest query first — the `graphulo trace` output. Each
// tree shows the kernel root, the coordinator's per-tablet scan and
// flush spans, and, against external daemons, the per-daemon tablet
// passes linked under the scan that triggered them.
func (db *DB) FormatQueryTraces() []string {
	snaps := db.cluster.Telemetry().Snapshot()
	out := make([]string, len(snaps))
	for i, s := range snaps {
		out[i] = telemetry.FormatTree(s)
	}
	return out
}

// TabletRuns returns a table's per-tablet immutable-run counts — the
// merge width its scans pay, at most ClusterConfig.MaxRunsPerTablet
// after every flush when that is set.
func (db *DB) TabletRuns(table string) ([]int, error) {
	return db.conn.TableOperations().TabletRuns(table)
}

// TableGraph is an undirected graph stored in two tables — its
// adjacency matrix A, which is its own transpose, and a degree table —
// with algorithms whose data-heavy kernels run server-side.
type TableGraph struct {
	db     *DB
	schema *schema.AdjacencySchema
	name   string
}

// CreateGraph creates the named graph's two tables, name (A) and
// name+"Deg" (degrees), both summing at every scope. Tables that already
// exist — e.g. recovered from a durable DataDir — are reused with their
// persisted contents; one lacking the sum combiner at some scope is
// upgraded in place, and one carrying another combiner is an error.
func (db *DB) CreateGraph(name string) (*TableGraph, error) {
	s, err := schema.NewAdjacencySchema(db.conn, name)
	if err != nil {
		return nil, err
	}
	return &TableGraph{db: db, schema: s, name: name}, nil
}

// OpenGraph reattaches to a graph recovered from a durable DataDir (or
// simply created earlier in this process). It fails if the graph's
// adjacency table does not exist.
func (db *DB) OpenGraph(name string) (*TableGraph, error) {
	if !db.conn.TableOperations().Exists(name) {
		return nil, fmt.Errorf("graphulo: graph %q does not exist", name)
	}
	return db.CreateGraph(name)
}

// Ingest loads an undirected edge-list graph: four entries per edge,
// A in both orientations and both endpoints' degrees.
func (g *TableGraph) Ingest(graph Graph) error { return g.schema.IngestGraph(graph) }

// Tables returns the underlying table names: A, Aᵀ and the degree
// table. An undirected graph's adjacency matrix is its own transpose,
// so a and at name the same table; TableMult(at, a, …) computes A·A.
func (g *TableGraph) Tables() (a, at, deg string) {
	return g.schema.Table, g.schema.Table, g.schema.DegTable
}

// VertexName converts an integer vertex id to its row key.
func VertexName(v int) string { return schema.VertexName(v) }

// ParseVertex converts a row key back to the vertex id.
func ParseVertex(key string) (int, error) { return schema.ParseVertex(key) }

// BFS runs a k-hop breadth-first search from the seed vertices,
// returning vertex-key → hop level.
func (g *TableGraph) BFS(seeds []int, hops int) (map[string]int, error) {
	return g.BFSWithOptions(seeds, hops, BFSOptions{})
}

// BFSWithOptions is BFS with full kernel options: degree filtering
// (BFSOptions.MinDegree/MaxDegree against the graph's degree table)
// and/or the RowStart/RowEnd sub-graph band, which is pushed into every
// frontier scan so tablets outside the band never execute.
func (g *TableGraph) BFSWithOptions(seeds []int, hops int, opts BFSOptions) (map[string]int, error) {
	keys := make([]string, len(seeds))
	for i, s := range seeds {
		keys[i] = schema.VertexName(s)
	}
	if opts.DegTable == "" && (opts.MinDegree != 0 || opts.MaxDegree != 0) {
		opts.DegTable = g.schema.DegTable
	}
	return core.AdjBFS(g.db.conn, g.schema.Table, keys, hops, opts)
}

// Degrees returns every vertex's degree, reduced server-side and
// streamed back as one query; no table is created.
func (g *TableGraph) Degrees() (map[string]float64, error) {
	return core.Degrees(g.db.conn, g.schema.Table)
}

// KTruss computes the k-truss server-side, returning the surviving
// adjacency pattern as an associative array. Each peel round writes its
// edges' support into a round table of the call's own, dropped before
// returning; the rounds stop at the first that peels no edge in a
// triangle.
func (g *TableGraph) KTruss(k int) (*Assoc, error) {
	truss, _, err := core.KTruss(g.db.conn, g.schema.Table, k, g.name+"KTs")
	return truss, err
}

// Jaccard computes all-pairs Jaccard coefficients (upper triangle),
// returning them as an associative array; no table is created.
func (g *TableGraph) Jaccard() (*Assoc, error) {
	return core.Jaccard(g.db.conn, g.schema.Table)
}

// TriangleCount counts triangles with a fused server-side multiply
// plan (no scratch table).
func (g *TableGraph) TriangleCount() (float64, error) {
	return core.TriangleCountTable(g.db.conn, g.schema.Table)
}

// PageRank runs the power iteration with the adjacency matrix staying
// server-side; only the O(V) rank vector crosses the wire per step.
func (g *TableGraph) PageRank(alpha, tol float64, maxIter int) (map[string]float64, int, error) {
	res, err := core.PageRankTable(g.db.conn, g.schema.Table, alpha, tol, maxIter)
	if err != nil {
		return nil, 0, err
	}
	return res.Ranks, res.Iterations, nil
}

// EdgeWeight probes one adjacency cell: the weight of edge (u, v), or
// ok=false when the graph has no such edge. The probe is a
// cell-confined scan over exactly one (row, colQ) pair, so on a durable
// cluster each rfile answers it through its (row, column-qualifier)
// bloom filter first — files that cannot contain the pair are skipped
// without touching a data block (counted by
// ScanStats.ColQBloomNegatives).
func (g *TableGraph) EdgeWeight(u, v int) (float64, bool, error) {
	sc, err := g.db.conn.CreateScanner(g.schema.Table)
	if err != nil {
		return 0, false, err
	}
	sc.SetRange(skv.ExactCell(schema.VertexName(u), schema.EdgeFamily, schema.VertexName(v)))
	entries, err := sc.Entries()
	if err != nil {
		return 0, false, err
	}
	if len(entries) == 0 {
		return 0, false, nil
	}
	f, ok := skv.DecodeFloat(entries[0].V)
	return f, ok, nil
}

// HasEdge reports whether edge (u, v) exists, via the same
// bloom-accelerated cell probe as EdgeWeight.
func (g *TableGraph) HasEdge(u, v int) (bool, error) {
	_, ok, err := g.EdgeWeight(u, v)
	return ok, err
}

// TableMult exposes the server-side C ⊕= Aᵀ·B kernel on raw tables.
func (db *DB) TableMult(tableAT, tableB, tableC, semiringName string) (int, error) {
	return core.TableMult(db.conn, tableAT, tableB, tableC, core.MultOptions{Semiring: semiringName})
}

// TableMultOpts is TableMult with full kernel options: the SpRef
// constraint (row band pushed down to both operands' tablets, column
// band filtered server-side) and the fold stage's buffer budget.
func (db *DB) TableMultOpts(tableAT, tableB, tableC string, opts MultOptions) (int, error) {
	return core.TableMult(db.conn, tableAT, tableB, tableC, opts)
}

// TableMultClient is the thin-client multiply baseline (ablation).
func (db *DB) TableMultClient(tableAT, tableB, tableC, semiringName string) (int, error) {
	return core.TableMultClient(db.conn, tableAT, tableB, tableC, core.MultOptions{Semiring: semiringName})
}

// TableAssign writes a sub-array of tableIn into a destination
// sub-array of tableOut with offset remapping — the SpAsgn kernel, the
// dual of the SpRef constraint: C(p+i, q+j) ⊕= A(i, j) for the
// constrained (i, j). The whole assignment is one fused server-side
// pass (constraint filters in source coordinates, the remap runs
// directly below the write sink); nothing touches the client or a
// scratch table.
func (db *DB) TableAssign(tableIn, tableOut, rowOffset, colOffset string, c ScanConstraint) (int, error) {
	return core.TableAssign(db.conn, tableIn, tableOut, rowOffset, colOffset, c)
}

// ExplainPlan renders a kernel's compiled plan without a cluster: the
// planner reads nothing from one, so the plan is identical to what a
// live driver executes.
func ExplainPlan(kernel, table, out string) (string, error) {
	return core.ExplainPlan(kernel, table, out)
}

// ExplainKernels lists the kernel names ExplainPlan accepts.
func ExplainKernels() []string { return core.ExplainKernels() }

// WriteAssoc stores an associative array into a table.
func (db *DB) WriteAssoc(table string, a *Assoc) error {
	ops := db.conn.TableOperations()
	if !ops.Exists(table) {
		if err := ops.Create(table); err != nil {
			return err
		}
	}
	return schema.WriteAssoc(db.conn, table, a.Entries(), nil)
}

// ReadAssoc loads a table into an associative array.
func (db *DB) ReadAssoc(table string) (*Assoc, error) {
	return schema.ReadAssoc(db.conn, table, nil)
}

// NMFTopics factorises a document×term table into W and H tables and
// returns the result (Fig. 3's pipeline).
func (db *DB) NMFTopics(docTermTable, wTable, hTable string, cfg NMFConfig) (NMFResult, error) {
	return core.NMFTable(db.conn, docTermTable, wTable, hTable, cfg)
}
