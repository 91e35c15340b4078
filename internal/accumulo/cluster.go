// Package accumulo implements an embedded Accumulo-style mini-cluster:
// multiple tablet servers hosting row-range tablets, tables with splits
// and per-scope iterator stacks, and thin clients (BatchWriter, Scanner)
// that talk to the servers through a serialised wire protocol.
//
// This is the substitution for the paper's Apache Accumulo deployment
// (see docs/ARCHITECTURE.md): the storage contract — sorted (row, colF,
// colQ, ts) → value entries, range scans, server-side iterators at
// scan/minc/majc scopes — matches what a thin Accumulo client sees, so
// the Graphulo kernels built on top exercise the same code paths.
//
// Every data-plane exchange — write batches, scan batches, and the
// scans and writes issued by server-side iterators (RemoteSource,
// TwoTableIterator, RemoteWrite) — crosses a transport between client
// and tablet server (internal/transport). Config.Transport selects the
// wire: "inproc" (default) hands the codec-serialised batches across
// channels inside the process, "tcp" gives every tablet server its own
// socket so TableMult's tablet→tablet partial-product flow crosses real
// connections, and Config.Servers points the cluster at standalone
// tablet-server processes (cmd/graphulo serve) so the flow crosses OS
// process — or machine — boundaries, as in the paper's deployment. The
// kernels produce identical results on every transport; the equivalence
// tests pin it.
//
// Scans are streaming: every scan is an EntryStream cursor fed by
// per-tablet fetch workers that each relay one remote tablet scan, up
// to Config.ScanParallelism tablets concurrently. The server runs the
// iterator stack where the tablet lives and streams back one wire batch
// at a time with backpressure, so a whole-table scan or kernel pass
// buffers wire batches, never the table, and the heavy per-tablet work
// (iterator stacks, TwoTableIterator products, RemoteWrite batching)
// runs in parallel across tablets exactly as the paper's tablet servers
// do. A multi-range scan (Scanner.SetRanges — a BFS frontier, say) is
// the same cursor: each overlapping tablet serves its clips of every
// range in one pass, so its cost is one pass per tablet, not per range.
// Scanner.Entries remains as a collect-all convenience on top of the
// cursor.
//
// The cluster runs in one of two durability modes. With an empty
// Config.DataDir everything lives in memory, as a test harness expects.
// With DataDir set, the cluster persists like Accumulo does: tables,
// splits, and iterator settings live in a manifest, each tablet appends
// writes to a write-ahead log before acknowledging them, and
// compactions produce immutable on-disk rfiles. OpenMiniCluster on the
// same directory recovers the full cluster state — manifest first, then
// WAL replay into the memtables — so even an unclean shutdown loses no
// acknowledged write. Close flushes and releases the directory.
package accumulo

import (
	"fmt"
	"io"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/sched"
	"graphulo/internal/skv"
	"graphulo/internal/store"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// Scope identifies where an iterator stack applies, as in Accumulo.
type Scope int

// Iterator scopes.
const (
	ScanScope Scope = iota // applied to every scan
	MincScope              // applied during minor compaction
	MajcScope              // applied during major compaction
)

// AllScopes lists every scope, for convenience when attaching combiners.
var AllScopes = []Scope{ScanScope, MincScope, MajcScope}

// scopeNames maps scopes to the stable names used in the manifest.
var scopeNames = map[Scope]string{ScanScope: "scan", MincScope: "minc", MajcScope: "majc"}

func scopeFromName(name string) (Scope, bool) {
	for s, n := range scopeNames {
		if n == name {
			return s, true
		}
	}
	return 0, false
}

// Transport selector values for Config.Transport.
const (
	// TransportInProc keeps every tablet server in the process; the wire
	// codec round-trips every batch across a channel boundary.
	TransportInProc = "inproc"
	// TransportTCP launches every tablet server on its own loopback
	// socket; all data-plane traffic crosses real TCP connections.
	TransportTCP = "tcp"
)

// Config sizes the mini-cluster. The public API exports it unchanged as
// graphulo.ClusterConfig, so a knob is declared — and documented — once,
// here.
type Config struct {
	// TabletServers is the number of server instances (default 2).
	TabletServers int
	// MemLimit is the per-tablet memtable entry limit before an
	// automatic minor compaction (default 1<<14).
	MemLimit int
	// WireBatch is the number of entries per RPC batch (default 4096).
	WireBatch int
	// ScanParallelism bounds how many tablets one scan (or one
	// server-side kernel pass) executes concurrently (default 4). With 1
	// tablets are scanned strictly in sequence; higher values let
	// whole-table kernels such as TableMult run on several tablets at
	// once while each scan still buffers only ScanParallelism wire
	// batches.
	ScanParallelism int
	// Transport selects the data-plane wire: TransportInProc (default)
	// or TransportTCP. Kernels behave identically on both; TCP makes
	// every client↔server and server↔server exchange cross a real
	// socket. Ignored when Servers is set (which implies TCP).
	Transport string
	// Servers lists external tablet-server endpoints (host:port)
	// started with `graphulo serve`. When set, the cluster launches no
	// tablet servers of its own: tablets are assigned to the listed
	// processes and every scan and write crosses process boundaries.
	// External clusters are in-memory only (no DataDir) and do not
	// support tablet-level admin ops (splits, flush, compact).
	Servers []string
	// DataDir, when non-empty, makes the cluster durable: tables and
	// data persist under this directory (manifest + WAL + rfiles) and
	// OpenMiniCluster recovers them. Empty keeps everything in memory.
	DataDir string
	// NoSync skips per-append WAL fsyncs in durable mode (benchmarks
	// and bulk loads; crash durability is reduced to OS buffering).
	NoSync bool
	// BlockCacheBytes bounds the shared rfile block cache of a durable
	// cluster: repeated scans decode each resident block once instead
	// of re-reading, re-CRCing, and re-decoding it from disk. 0 selects
	// the default capacity (32 MiB); negative disables the cache.
	BlockCacheBytes int64
	// MetricsAddr, when non-empty, serves the coordinator's telemetry
	// HTTP endpoint (Prometheus /metrics, JSON /queries, /debug/pprof)
	// on this address (host:port; ":0" picks an ephemeral port, read it
	// back with TelemetryAddr / DB.MetricsAddr). Empty keeps the endpoint
	// off.
	MetricsAddr string
	// SlowQueryThreshold emits a structured JSON log line (to
	// SlowQueryLog) for every kernel query at or over this duration.
	// Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines; nil disables the log
	// regardless of threshold. There is no default writer: cmd/graphulo
	// is what supplies os.Stderr (or the -slow-query-log file).
	SlowQueryLog io.Writer
	// DefaultTenant labels kernel queries that carry no explicit tenant
	// (MultOptions.Tenant, AdjBFSOptions.Tenant); "" is itself a valid
	// (default) tenant label. Tenants are the unit of budget
	// accounting and per-tenant telemetry.
	DefaultTenant string
	// MaxConcurrentQueries bounds kernel queries executing at once; the
	// excess queues for admission. 0 selects the default (64); negative
	// removes the bound.
	MaxConcurrentQueries int
	// MaxQueuedQueries bounds the admission queue; a query arriving with
	// the queue full is rejected with a typed AdmissionError instead of
	// waiting. 0 selects the default (256); negative rejects immediately
	// once the concurrency slots are full.
	MaxQueuedQueries int
	// ScanEntryBudget, when positive, bounds the entries any one kernel
	// query may scan; crossing it cancels the query with a typed
	// BudgetError surfaced through EntryStream.Err.
	ScanEntryBudget int64
	// WriteByteBudget, when positive, bounds the wire bytes any one
	// kernel query may write; crossing it fails the write with a typed
	// BudgetError.
	WriteByteBudget int64
	// MaxRunsPerTablet, when positive, bounds every tablet's
	// immutable-run count, in-memory and durable alike: a flush that
	// leaves a tablet over it folds contiguous groups of similar-sized
	// runs (size-tiered picking, with the table's majc iterator stack)
	// until the tablet is back under, one merge at a time per table.
	// That bounds k-way merge width under sustained ingest without
	// rewriting the largest runs on every merge. 0 or negative keeps
	// major compaction manual-only.
	MaxRunsPerTablet int
}

func (c Config) withDefaults() Config {
	if len(c.Servers) > 0 {
		c.TabletServers = len(c.Servers)
	}
	if c.TabletServers <= 0 {
		c.TabletServers = 2
	}
	if c.MemLimit <= 0 {
		c.MemLimit = 1 << 14
	}
	if c.WireBatch <= 0 {
		c.WireBatch = 4096
	}
	if c.ScanParallelism <= 0 {
		c.ScanParallelism = 4
	}
	return c
}

// MiniCluster is the cluster's coordinator: the metadata authority
// (tables, splits, iterator settings, tablet→server assignment), the
// durable directory, admin ops, and query admission.
// The tablets themselves live on TabletServers — launched here on the
// coordinator's transport, or standalone processes it dials — and all
// data-plane traffic reaches them through a router over a topology
// snapshotted from the metadata.
type MiniCluster struct {
	cfg   Config
	clock atomic.Int64

	// tel is the coordinator's telemetry registry: the process counter
	// block that this cluster's router, launched servers, tablets and
	// durable directory all count into, the process latency histograms,
	// and the kernel queries it ran; telSrv is the optional HTTP endpoint
	// (Config.MetricsAddr) exposing them.
	tel    *telemetry.Registry
	telSrv *telemetry.Server

	// sched is the coordinator's query scheduler: bounded FIFO
	// admission and per-query budgets.
	sched *sched.Scheduler

	// tr carries the data plane; endpoints[i] is the dialable address
	// of tablet server i. servers holds the servers this cluster
	// launched (empty when Config.Servers points at external
	// processes).
	tr        transport.Transport
	endpoints []string
	servers   []*TabletServer

	mu     sync.RWMutex
	tables map[string]*tableMeta

	// metaVersion counts routing-relevant metadata changes (tables,
	// splits, tablet placement, scan-scope iterators); routing caches the
	// router built over the topology snapshot of one version, so the
	// topology is snapshotted and encoded once per metadata change rather
	// than once per scan.
	metaVersion atomic.Uint64
	routing     atomic.Pointer[router]

	// dir is the durable data directory; nil for in-memory clusters.
	dir *store.Dir

	// failWrites > 0 makes the next N write RPCs fail, for testing the
	// BatchWriter retry path.
	failWrites atomic.Int64
}

// tabletRef is the coordinator's handle to one tablet: its hosted row
// range, the server that owns it, and — for locally launched servers —
// the tablet state itself (nil when the tablet lives in an external
// process).
type tabletRef struct {
	tab        *tablet.Tablet
	server     int
	start, end string // hosted row range [start, end); "" = unbounded
	endpoint   string // transport address of the owning tablet server
}

type tableMeta struct {
	name string

	// bound is the run bound the table's tablets share
	// (Config.MaxRunsPerTablet > 0; nil otherwise), closed at table
	// delete and cluster close.
	bound *tablet.RunBound
	// minc returns the table's current minc stack; every background
	// flush of its tablets runs it, as Flush does.
	minc func() func(iterator.SKVI) (iterator.SKVI, error)

	mu      sync.RWMutex
	splits  []string // sorted row boundaries
	tablets []*tabletRef
	iters   map[Scope][]iterator.Setting
}

// external reports whether the tablet servers are external processes.
func (mc *MiniCluster) external() bool { return len(mc.cfg.Servers) > 0 }

// NewMiniCluster starts an embedded in-memory cluster. For a durable
// cluster (Config.DataDir set) use OpenMiniCluster; NewMiniCluster
// panics on I/O errors, which in-process in-memory configurations
// cannot hit.
func NewMiniCluster(cfg Config) *MiniCluster {
	mc, err := OpenMiniCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("accumulo: NewMiniCluster: %v", err))
	}
	return mc
}

// OpenMiniCluster starts an embedded cluster. With cfg.DataDir set it
// opens (or initialises) the durable data directory and recovers every
// table: splits and iterator settings from the manifest, on-disk runs
// from the recorded rfiles, and unflushed writes by WAL replay. The
// logical timestamp clock resumes past every recovered timestamp, so
// versioning semantics survive restarts.
func OpenMiniCluster(cfg Config) (*MiniCluster, error) {
	mc := &MiniCluster{cfg: cfg.withDefaults(), tables: map[string]*tableMeta{}}
	mc.sched = sched.New(sched.Config{
		MaxConcurrentQueries: cfg.MaxConcurrentQueries,
		MaxQueuedQueries:     cfg.MaxQueuedQueries,
		ScanEntryBudget:      cfg.ScanEntryBudget,
		WriteByteBudget:      cfg.WriteByteBudget,
	})
	mc.tel = telemetry.NewRegistry(telemetry.Options{
		Host:               "coordinator",
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		SlowQueryLog:       cfg.SlowQueryLog,
	})
	mc.tel.GaugeFunc(telemetry.QueriesRunning, func() int64 { return int64(mc.sched.QueriesRunning()) })
	mc.tel.GaugeFunc(telemetry.QueriesQueued, func() int64 { return int64(mc.sched.QueriesQueued()) })
	if err := mc.openTransport(); err != nil {
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		srv, err := telemetry.Serve(cfg.MetricsAddr, mc.tel)
		if err != nil {
			mc.Close()
			return nil, err
		}
		mc.telSrv = srv
	}
	if cfg.DataDir == "" {
		return mc, nil
	}
	dir, err := store.Open(cfg.DataDir, store.Options{
		NoSync:          cfg.NoSync,
		BlockCacheBytes: cfg.BlockCacheBytes,
		Stats:           &mc.tel.Stats,
		WALSyncObserver: func(d time.Duration) { mc.tel.WALSync.Observe(d) },
	})
	if err != nil {
		mc.Close()
		return nil, err
	}
	mc.dir = dir
	clockFloor := dir.Clock()
	for _, ti := range dir.Tables() {
		meta := mc.newTableMeta(ti.Name)
		meta.splits = ti.Splits
		for scopeName, settings := range ti.Iters {
			if s, ok := scopeFromName(scopeName); ok {
				meta.iters[s] = settings
			}
		}
		for i, tbi := range ti.Tablets {
			ts, runs, replay, maxTs, err := dir.OpenTablet(ti.Name, tbi)
			if err != nil {
				// Unwind what is up: servers, metrics endpoint, the
				// directory.
				mc.Close()
				return nil, fmt.Errorf("accumulo: recovering table %q: %w", ti.Name, err)
			}
			if maxTs > clockFloor {
				clockFloor = maxTs
			}
			tab := tablet.NewDurable(tbi.Start, tbi.End, mc.cfg.MemLimit, ts, runs, replay)
			mc.initTablet(tab, meta)
			server := i % mc.cfg.TabletServers
			mc.servers[server].host(ti.Name, tbi.Start, tbi.End, tab)
			meta.tablets = append(meta.tablets, &tabletRef{
				tab:      tab,
				server:   server,
				start:    tbi.Start,
				end:      tbi.End,
				endpoint: mc.endpoints[server],
			})
		}
		mc.tables[ti.Name] = meta
	}
	mc.clock.Store(clockFloor)
	dir.SetClock(func() int64 { return mc.clock.Load() })
	return mc, nil
}

// openTransport brings up the data plane: the transport implementation
// plus the tablet servers — launched here, one listening endpoint each,
// unless Config.Servers points at standalone processes, which are dialed
// instead.
func (mc *MiniCluster) openTransport() error {
	if mc.external() {
		if mc.cfg.DataDir != "" {
			return fmt.Errorf("accumulo: external tablet servers (Config.Servers) do not support DataDir")
		}
		if mc.cfg.Transport == TransportInProc {
			return fmt.Errorf("accumulo: external tablet servers require the tcp transport")
		}
		mc.tr = transport.NewTCP()
		mc.endpoints = append([]string(nil), mc.cfg.Servers...)
		// Fail fast on unreachable servers and on servers speaking another
		// wire version (ErrWireVersion).
		for _, ep := range mc.endpoints {
			if err := call(mc.tr, ep, opPing, encodeCall(opPing, reqHeader{}, nil)); err != nil {
				mc.tr.Close()
				return fmt.Errorf("accumulo: tablet server %s: %w", ep, err)
			}
		}
		return nil
	}
	switch mc.cfg.Transport {
	case "", TransportInProc:
		mc.tr = transport.NewInProc()
	case TransportTCP:
		mc.tr = transport.NewTCP()
	default:
		return fmt.Errorf("accumulo: unknown transport %q", mc.cfg.Transport)
	}
	for i := 0; i < mc.cfg.TabletServers; i++ {
		s := &TabletServer{
			tr:       mc.tr,
			memLimit: mc.cfg.MemLimit,
			clock:    &mc.clock,
			tel:      mc.tel,
		}
		if err := s.listen(""); err != nil {
			mc.closeTransport()
			return err
		}
		mc.servers = append(mc.servers, s)
		mc.endpoints = append(mc.endpoints, s.Addr())
	}
	return nil
}

// closeTransport shuts the data plane down: launched tablet servers stop
// serving (waiting out in-flight passes), then the transport drops its
// pooled connections.
func (mc *MiniCluster) closeTransport() error {
	var firstErr error
	for _, s := range mc.servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if mc.tr != nil {
		if err := mc.tr.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// topologyChanged invalidates the cached router. Metadata mutators call
// it once the change is visible, so any scan or write issued after the
// mutating call returns routes by a topology that includes it.
func (mc *MiniCluster) topologyChanged() { mc.metaVersion.Add(1) }

// router returns the coordinator's router over the current topology,
// snapshotting the metadata only when it changed since the last call. A
// mutation racing the snapshot leaves it stored under the older version,
// so the next call rebuilds.
func (mc *MiniCluster) router() *router {
	v := mc.metaVersion.Load()
	if r := mc.routing.Load(); r != nil && r.version == v {
		return r
	}
	mc.mu.RLock()
	metas := make([]*tableMeta, 0, len(mc.tables))
	for _, meta := range mc.tables {
		metas = append(metas, meta)
	}
	mc.mu.RUnlock()
	topo := &topology{wireBatch: mc.cfg.WireBatch, scanPar: mc.cfg.ScanParallelism}
	for _, meta := range metas {
		meta.mu.RLock()
		tt := topoTable{
			name: meta.name,
			scan: append([]iterator.Setting(nil), meta.iters[ScanScope]...),
		}
		for _, tr := range meta.tablets {
			tt.tablets = append(tt.tablets, topoTablet{start: tr.start, end: tr.end, endpoint: tr.endpoint})
		}
		meta.mu.RUnlock()
		topo.tables = append(topo.tables, tt)
	}
	r := &router{
		tr: mc.tr, tel: mc.tel,
		topo: topo, topoRaw: appendTopology(nil, topo), version: v,
		// Standalone servers count their work in their own process; their
		// pass trailers are how it reaches the coordinator's globals.
		foldGlobals: mc.external(),
	}
	mc.routing.Store(r)
	return r
}

// newTableMeta makes an empty table's metadata, with its flush stack
// and the run bound Config.MaxRunsPerTablet asks for.
func (mc *MiniCluster) newTableMeta(name string) *tableMeta {
	meta := &tableMeta{name: name, iters: map[Scope][]iterator.Setting{}}
	meta.minc = func() func(iterator.SKVI) (iterator.SKVI, error) {
		return mc.compactionStack(meta, MincScope)
	}
	if mc.cfg.MaxRunsPerTablet > 0 {
		meta.bound = tablet.NewRunBound(mc.cfg.MaxRunsPerTablet, func() func(iterator.SKVI) (iterator.SKVI, error) {
			return mc.compactionStack(meta, MajcScope)
		})
	}
	return meta
}

// initTablet wires a freshly created tablet into the cluster: the
// process counter block, the table's flush stack and its run bound.
func (mc *MiniCluster) initTablet(tab *tablet.Tablet, meta *tableMeta) {
	tab.SetStats(&mc.tel.Stats)
	tab.SetFlushStack(meta.minc)
	tab.SetRunBound(meta.bound)
}

// StartKernelQuery admits one kernel query through the scheduler and
// starts its telemetry record. tenant "" resolves to
// Config.DefaultTenant. On admission the query carries its tenant label
// (shipped in every scan and write request it issues) and, when the
// cluster configures budgets, a per-query budget enforced at the scan
// and write counting sites. The returned finish releases the admission
// slot and finalises the query — call it exactly once, with the query's
// terminal error. When the admission queue is full the query never
// starts: the error is a *sched.AdmissionError and finish is nil.
func (mc *MiniCluster) StartKernelQuery(kernel, tenant string) (*telemetry.Query, func(error), error) {
	if tenant == "" {
		tenant = mc.cfg.DefaultTenant
	}
	if tenant == "" {
		tenant = "default"
	}
	release, wait, err := mc.sched.Admit(tenant)
	if err != nil {
		return nil, nil, err
	}
	q := mc.tel.StartQuery(kernel).WithTenant(tenant)
	if wait > 0 {
		mc.tel.Count(q, telemetry.QueueWaitNanos, int64(wait))
		mc.tel.QueueWait.Observe(wait)
	}
	if b := mc.sched.NewBudget(tenant); b != nil {
		q.SetBudget(b)
	}
	var once sync.Once
	finish := func(err error) {
		once.Do(func() {
			q.Finish(err)
			release()
		})
	}
	return q, finish, nil
}

// Scheduler exposes the cluster's query scheduler (never nil) — tests
// and monitoring read its queue gauges.
func (mc *MiniCluster) Scheduler() *sched.Scheduler { return mc.sched }

// Telemetry returns the coordinator's telemetry registry: the process
// counter block (Stats) and latency histograms, plus every kernel query
// it has run (with per-query counters, latency histograms, and span
// trees).
func (mc *MiniCluster) Telemetry() *telemetry.Registry { return mc.tel }

// TelemetryAddr returns the bound address of the telemetry HTTP
// endpoint, or "" when Config.MetricsAddr did not enable one.
func (mc *MiniCluster) TelemetryAddr() string {
	if mc.telSrv == nil {
		return ""
	}
	return mc.telSrv.Addr()
}

// Close shuts the cluster down cleanly. For a durable cluster every
// tablet's memtable is flushed to an rfile (applying the minc stack,
// and reclaiming its WAL segments), then the manifest is persisted with
// the current logical clock and every WAL is synced and closed — a
// reopen after Close recovers purely from the manifest and rfiles, WAL
// replay being the crash path. In every mode Close then stops the
// locally launched tablet servers and releases the transport (listeners
// and pooled connections), so a TCP cluster must be Closed to free its
// sockets. Close is idempotent; an in-memory in-process cluster that is
// never Closed leaks nothing beyond its heap.
func (mc *MiniCluster) Close() error {
	var firstErr error
	if mc.telSrv != nil {
		mc.telSrv.Close()
		mc.telSrv = nil
	}
	if mc.dir != nil {
		mc.mu.RLock()
		metas := maps.Clone(mc.tables)
		mc.mu.RUnlock()
		ops := &TableOperations{mc: mc}
		for name, meta := range metas {
			if err := ops.Flush(name); err != nil && firstErr == nil {
				firstErr = err
			}
			// Close waits out a background flush's in-flight merge, so
			// nothing merges into the directory once it closes.
			meta.bound.Close()
		}
		if err := mc.dir.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		mc.dir = nil
	}
	if err := mc.closeTransport(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// persistIters writes a table's iterator settings to the manifest in
// durable mode. Caller holds the table's meta.mu.
func (mc *MiniCluster) persistIters(name string, iters map[Scope][]iterator.Setting) error {
	if mc.dir == nil {
		return nil
	}
	return mc.dir.SetIters(name, manifestIters(iters))
}

// manifestIters keys iterator settings by the manifest's scope names.
func manifestIters(iters map[Scope][]iterator.Setting) map[string][]iterator.Setting {
	out := make(map[string][]iterator.Setting, len(iters))
	for s, list := range iters {
		out[scopeNames[s]] = list
	}
	return out
}

// Connector returns a client connection, as Instance.getConnector would.
func (mc *MiniCluster) Connector() *Connector { return &Connector{mc: mc} }

// InjectWriteFailures makes the next n write RPCs return a transient
// error; used by tests and failure-injection benches.
func (mc *MiniCluster) InjectWriteFailures(n int) { mc.failWrites.Store(int64(n)) }

func (mc *MiniCluster) getTable(name string) (*tableMeta, error) {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	t, ok := mc.tables[name]
	if !ok {
		return nil, fmt.Errorf("accumulo: table %q does not exist", name)
	}
	return t, nil
}

// tabletsOverlapping returns the tablets whose row ranges intersect rng.
func (t *tableMeta) tabletsOverlapping(rng skv.Range) []*tabletRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var hit []*tabletRef
	for _, tr := range t.tablets {
		if !rng.Clip(skv.RowRange(tr.start, tr.end)).IsEmpty() {
			hit = append(hit, tr)
		}
	}
	return hit
}

// scopeStack returns a copy of the iterator settings for a scope.
func (t *tableMeta) scopeStack(s Scope) []iterator.Setting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]iterator.Setting(nil), t.iters[s]...)
}

// write is the client-side ingest path: the routed write, with failure
// injection before it. q (nil = untraced) receives the batch's
// per-query counters.
func (mc *MiniCluster) write(table string, entries []skv.Entry, q *telemetry.Query) error {
	if _, err := mc.getTable(table); err != nil {
		return err
	}
	if mc.failWrites.Load() > 0 && mc.failWrites.Add(-1) >= 0 {
		// Fails before any tablet absorbed entries, so a retry is safe.
		return fmt.Errorf("accumulo: %w", ErrTransient)
	}
	return mc.router().write(table, entries, q)
}

// openStream starts a client-issued streaming scan, routed by the
// current topology.
func (mc *MiniCluster) openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting, tc traceCtx) (*EntryStream, error) {
	return mc.router().openStream(table, ranges, families, extra, tc)
}

// compactionStack adapts a scope's settings to the tablet compaction
// callback signature. The stack's env is released as soon as the
// compaction drains the stack (envClosingIter), so remote streams
// opened by compaction-scope iterators do not linger until GC.
func (mc *MiniCluster) compactionStack(meta *tableMeta, scope Scope) func(iterator.SKVI) (iterator.SKVI, error) {
	settings := meta.scopeStack(scope)
	if len(settings) == 0 {
		return nil
	}
	// Take the router now, before the caller holds any tablet's
	// compaction lock: a rebuild reads every table's metadata, and
	// AddSplits holds a table's metadata lock while it waits for the
	// compaction lock of the tablet it splits.
	r := mc.router()
	return func(src iterator.SKVI) (iterator.SKVI, error) {
		env := &scanEnv{r: r}
		stack, err := iterator.BuildStack(src, settings, env)
		if err != nil {
			env.close()
			return nil, err
		}
		return &envClosingIter{SKVI: stack, env: env}, nil
	}
}

// envClosingIter wraps a stack built over a scanEnv and closes the env
// the moment the stack reports exhaustion — the only end-of-use signal
// the compaction callback contract offers. A stack abandoned mid-drain
// (compaction error) is still reclaimed by the stream finalizers.
type envClosingIter struct {
	iterator.SKVI
	env *scanEnv
}

func (c *envClosingIter) HasTop() bool {
	has := c.SKVI.HasTop()
	if !has && c.env != nil {
		c.env.close()
		c.env = nil
	}
	return has
}
