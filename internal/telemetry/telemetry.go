// Package telemetry is the observability subsystem: the one table of
// counters (counters.go) with the process's block of them on the
// Registry and a query's on the Query, trace IDs minted per kernel
// invocation, spans recording where each tablet pass and RemoteWrite
// flush ran, lock-free latency histograms, and the export surfaces
// (Prometheus /metrics, JSON /queries, slow-query log) built on top of
// them.
//
// The package is deliberately a leaf: it knows nothing about tablets or
// transports. The storage layers are handed the process StatSet to count
// into; the accumulo layer threads a *Query (the coordinator's kernel
// query, or a server-side pass attached to one) through its scan and
// write paths, and ships each pass's counters and spans back to the
// query's origin as an encoded Trailer at the end of the scan stream.
//
// Span model (one trace per kernel call):
//
//	kernel (root, coordinator)
//	└─ scan <table>                  client-side stream, coordinator
//	   └─ pass <table> [a,b)         tablet pass, serving process
//	      ├─ stack setup             iterator stack construction
//	      ├─ flush <table>           RemoteWrite batch leaving the pass
//	      └─ pass <operand> [c,d)    nested scan opened by an iterator
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one kernel invocation across every process its
// scans and writes touch.
type TraceID uint64

// String renders the trace ID the way logs and /queries do.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// idCounter mints process-unique span and trace IDs: a random per-process
// base advanced by an odd constant (a Weyl sequence), so IDs never repeat
// within a process and collide across processes with negligible
// probability — daemons mint span IDs that must stay distinct from the
// coordinator's within one trace.
var idCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idCounter.Store(uint64(time.Now().UnixNano()))
	}
}

func newID() uint64 {
	return idCounter.Add(0x9E3779B97F4A7C15)
}

// Span is one timed region of a query: a client scan, a tablet pass, an
// iterator-stack build, a RemoteWrite flush. Name, Host, Start, and the
// tree links are immutable after creation; only the duration is written
// when the span ends, atomically, so snapshots may race recording.
type Span struct {
	id     uint64
	parent uint64
	name   string
	host   string
	start  time.Time
	dur    atomic.Int64 // nanoseconds; 0 while the span is open
}

// ID returns the span's process-unique ID (0 for a nil span, which
// callers use as "attach to the parent I was given").
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End closes the span, recording its duration. Nil-safe and idempotent
// in effect (a second End overwrites the duration harmlessly).
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1 // an ended span is distinguishable from an open one
	}
	s.dur.Store(int64(d))
}

// SpanSnapshot is the exported (and wire) form of a Span.
type SpanSnapshot struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent"`
	Name     string        `json:"name"`
	Host     string        `json:"host"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Done     bool          `json:"done"`
}

func (s *Span) snapshot() SpanSnapshot {
	d := s.dur.Load()
	return SpanSnapshot{
		ID: s.id, Parent: s.parent, Name: s.name, Host: s.host,
		Start: s.start, Duration: time.Duration(d), Done: d != 0,
	}
}

// maxSpans bounds a query's retained span list; a kernel over thousands
// of tablets keeps the first maxSpans and counts the rest as dropped.
const maxSpans = 512

// BudgetHook is the resource-budget contract a query can carry: the
// scheduler layer implements it (sched.Budget) and the scan/write hot
// paths charge it at the same sites they move the telemetry counters.
// Defined here so telemetry stays a leaf package.
type BudgetHook interface {
	// ChargeScanEntries charges n entries delivered to the query's
	// scans; a non-nil error means the budget is exhausted and the
	// query must be cancelled.
	ChargeScanEntries(n int64) error
	// ChargeWriteBytes charges n wire bytes written on the query's
	// behalf; a non-nil error means the budget is exhausted.
	ChargeWriteBytes(n int64) error
}

// Query is the unit of observability: one kernel invocation on the
// coordinator, or one server-side tablet pass attached (by trace ID) to
// a kernel running elsewhere. Both sides accumulate counters, latency
// histograms, and spans; a pass additionally serialises itself into a
// Trailer that travels back up the scan stream to be folded into the
// originating query. All methods are nil-safe so untraced paths can
// thread a nil *Query.
type Query struct {
	reg    *Registry
	trace  TraceID
	kernel string
	host   string
	tenant string
	remote bool
	start  time.Time

	// budget is the query's resource allowance, set (if at all) before
	// the query's first scan or write. nil = unlimited.
	budget BudgetHook

	// Stats is the per-query counter block; histograms record every scan
	// pass and write batch attributed to the query (folded up from
	// trailers for work done in other processes).
	Stats      StatSet
	ScanPass   Histogram
	WriteBatch Histogram

	root *Span

	mu      sync.Mutex
	spans   []*Span
	foreign []SpanSnapshot // spans folded in from trailers
	dropped int
	done    bool
	end     time.Time
	errMsg  string
}

func newQuery(reg *Registry, trace TraceID, parent uint64, kernel string, remote bool) *Query {
	q := &Query{
		reg: reg, trace: trace, kernel: kernel, host: reg.host,
		remote: remote, start: time.Now(),
	}
	q.root = &Span{id: newID(), parent: parent, name: kernel, host: q.host, start: q.start}
	q.spans = append(q.spans, q.root)
	return q
}

// Trace returns the query's trace ID.
func (q *Query) Trace() TraceID {
	if q == nil {
		return 0
	}
	return q.trace
}

// Tenant returns the query's tenant label ("" = default tenant).
func (q *Query) Tenant() string {
	if q == nil {
		return ""
	}
	return q.tenant
}

// WithTenant labels the query with its tenant. Call before the query's
// first scan or write (the label is read concurrently afterwards).
// Nil-safe; returns q for chaining.
func (q *Query) WithTenant(tenant string) *Query {
	if q != nil {
		q.tenant = tenant
	}
	return q
}

// SetBudget attaches a resource budget; nil-safe. Call before the
// query's first scan or write. A nil hook (or one wrapping a nil
// budget) leaves the query unlimited.
func (q *Query) SetBudget(b BudgetHook) {
	if q != nil {
		q.budget = b
	}
}

// ChargeScanEntries charges delivered scan entries against the query's
// budget; nil-safe (no query or no budget charges free).
func (q *Query) ChargeScanEntries(n int64) error {
	if q == nil || q.budget == nil {
		return nil
	}
	return q.budget.ChargeScanEntries(n)
}

// ChargeWriteBytes charges written wire bytes against the query's
// budget; nil-safe.
func (q *Query) ChargeWriteBytes(n int64) error {
	if q == nil || q.budget == nil {
		return nil
	}
	return q.budget.ChargeWriteBytes(n)
}

// RootID returns the root span's ID (0 for nil).
func (q *Query) RootID() uint64 {
	if q == nil {
		return 0
	}
	return q.root.id
}

// Add attributes n of one counter to the query alone — for work some
// process block has already counted (a folded trailer, a storage delta).
// A site that does the work counts it with Registry.Count. Nil-safe.
func (q *Query) Add(c Counter, n int64) {
	if q != nil && n != 0 {
		q.Stats.Add(c, n)
	}
}

// AddStorageSince attributes to a pass what the serving process's
// storage counters moved since before was snapshotted. Nil-safe.
func (q *Query) AddStorageSince(before Counts) {
	if q == nil {
		return
	}
	for c, d := range descs {
		if d.storage {
			q.Add(Counter(c), q.reg.Stats.Get(Counter(c))-before[c])
		}
	}
}

// StartSpan opens a child span under parent (0 selects the root span).
// Returns nil — harmless to End — when q is nil or the span budget is
// spent.
func (q *Query) StartSpan(parent uint64, name string) *Span {
	if q == nil {
		return nil
	}
	if parent == 0 {
		parent = q.root.id
	}
	s := &Span{id: newID(), parent: parent, name: name, host: q.host, start: time.Now()}
	q.mu.Lock()
	if len(q.spans)+len(q.foreign) >= maxSpans {
		q.dropped++
		q.mu.Unlock()
		return nil
	}
	q.spans = append(q.spans, s)
	q.mu.Unlock()
	return s
}

// ObserveScanPass records one tablet-pass latency. Nil-safe.
func (q *Query) ObserveScanPass(d time.Duration) {
	if q != nil {
		q.ScanPass.Observe(d)
	}
}

// ObserveWriteBatch records one write-batch latency. Nil-safe.
func (q *Query) ObserveWriteBatch(d time.Duration) {
	if q != nil {
		q.WriteBatch.Observe(d)
	}
}

// FoldTrailer merges a pass's shipped counters, histograms, and spans
// into this query — the aggregation step that turns per-process work
// into one query-wide view. The process block is left alone: the servers
// that did the work counted it there (see Registry.FoldTrailer for when
// they did not). Nil-safe.
func (q *Query) FoldTrailer(t *Trailer) {
	if q == nil || t == nil {
		return
	}
	for c, v := range t.Counts {
		if v != 0 {
			q.Stats.Add(Counter(c), v)
		}
	}
	q.ScanPass.Fold(t.ScanPass)
	q.WriteBatch.Fold(t.WriteBatch)
	if len(t.Spans) == 0 {
		return
	}
	q.mu.Lock()
	for _, s := range t.Spans {
		if len(q.spans)+len(q.foreign) >= maxSpans {
			q.dropped++
			continue
		}
		q.foreign = append(q.foreign, s)
	}
	q.mu.Unlock()
}

// FinishPass ends a pass begun with Registry.StartPass, once: the root
// span closes, the pass duration lands in the pass's own ScanPass
// histogram (so it travels in the trailer) and in the serving process's,
// the in-flight gauge drops, and a listed pass moves to the recent ring.
// Nil-safe.
func (q *Query) FinishPass(err error) {
	if q == nil {
		return
	}
	q.root.End()
	d := time.Duration(q.root.dur.Load())
	q.ScanPass.Observe(d)
	q.finish(err)
	q.reg.ScanPass.Observe(d)
	q.reg.Stats.Add(ScansInFlight, -1)
	q.reg.finishQuery(q)
}

// Finish ends a kernel query: the root span closes, the end-to-end
// latency lands in the registry's kernel histogram, and the query moves
// from in-flight to recent (emitting a slow-query log line when over
// threshold). Nil-safe; idempotent.
func (q *Query) Finish(err error) {
	if q == nil {
		return
	}
	q.root.End()
	q.finish(err)
	q.reg.finishQuery(q)
}

func (q *Query) finish(err error) {
	q.mu.Lock()
	if !q.done {
		q.done = true
		q.end = time.Now()
		if err != nil {
			q.errMsg = err.Error()
		}
	}
	q.mu.Unlock()
}

// Trailer serialises the pass's accumulated counters, histograms, and
// spans for the trip back up the scan stream.
func (q *Query) Trailer() Trailer {
	t := Trailer{
		Counts:     q.Stats.Counts(),
		ScanPass:   q.ScanPass.Snapshot(),
		WriteBatch: q.WriteBatch.Snapshot(),
	}
	q.mu.Lock()
	t.Spans = make([]SpanSnapshot, 0, len(q.spans)+len(q.foreign))
	for _, s := range q.spans {
		t.Spans = append(t.Spans, s.snapshot())
	}
	t.Spans = append(t.Spans, q.foreign...)
	q.mu.Unlock()
	return t
}

// QuerySnapshot is the exported view of a query, shaped for /queries.
type QuerySnapshot struct {
	Trace      string            `json:"trace"`
	Kernel     string            `json:"kernel"`
	Host       string            `json:"host"`
	Tenant     string            `json:"tenant,omitempty"`
	Remote     bool              `json:"remote,omitempty"`
	Start      time.Time         `json:"start"`
	Duration   time.Duration     `json:"duration_ns"`
	Done       bool              `json:"done"`
	Err        string            `json:"error,omitempty"`
	Stats      Counts            `json:"stats"`
	ScanPass   HistogramSnapshot `json:"scan_pass"`
	WriteBatch HistogramSnapshot `json:"write_batch"`
	Spans      []SpanSnapshot    `json:"spans"`
	Dropped    int               `json:"spans_dropped,omitempty"`
}

// Snapshot captures the query's current state; safe while the query is
// still running.
func (q *Query) Snapshot() QuerySnapshot {
	q.mu.Lock()
	snap := QuerySnapshot{
		Trace:   q.trace.String(),
		Kernel:  q.kernel,
		Host:    q.host,
		Tenant:  q.tenant,
		Remote:  q.remote,
		Start:   q.start,
		Done:    q.done,
		Err:     q.errMsg,
		Dropped: q.dropped,
	}
	if q.done {
		snap.Duration = q.end.Sub(q.start)
	} else {
		snap.Duration = time.Since(q.start)
	}
	snap.Spans = make([]SpanSnapshot, 0, len(q.spans)+len(q.foreign))
	for _, s := range q.spans {
		snap.Spans = append(snap.Spans, s.snapshot())
	}
	snap.Spans = append(snap.Spans, q.foreign...)
	q.mu.Unlock()
	snap.Stats = q.Stats.Counts()
	snap.ScanPass = q.ScanPass.Snapshot()
	snap.WriteBatch = q.WriteBatch.Snapshot()
	return snap
}

// Options configures a Registry.
type Options struct {
	// Host labels spans and queries minted by this process ("coordinator",
	// a daemon's listen address, ...).
	Host string
	// SlowQueryThreshold emits a structured log line for every finished
	// kernel query at or over this duration; <= 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query JSON lines (one object per
	// line). nil disables the log regardless of threshold.
	SlowQueryLog io.Writer
	// MaxRecent bounds the retained finished-query ring (default 64).
	MaxRecent int
	// ListPasses makes the registry track the tablet passes served here
	// (StartPass), so the process's /queries listing shows them — what a
	// standalone tablet server wants. A coordinator leaves it off: its
	// listing is the kernel queries it ran.
	ListPasses bool
}

// Registry is a process's telemetry: its counter block, its latency
// histograms, and its queries — in-flight and a ring of recent.
type Registry struct {
	host          string
	slowThreshold time.Duration
	maxRecent     int
	listPasses    bool

	// Stats is the process counter block: everything this process's
	// routers, tablet servers, tablets and storage readers count.
	Stats StatSet
	// reads holds the functions kindReadGauge counters are read through.
	reads [NumCounters]func() int64

	// Process-global latency distributions, exported as Prometheus
	// histogram families by the telemetry HTTP server.
	ScanPass   Histogram // one observation per tablet pass served here
	WriteBatch Histogram // one per write batch shipped from here
	WALSync    Histogram // one per WAL fsync issued here
	Kernel     Histogram // one per kernel query finished here
	QueueWait  Histogram // one per admission queue wait

	started atomic.Int64

	tenantMu sync.Mutex
	tenants  map[string]*TenantSnapshot

	slowMu  sync.Mutex
	slowLog io.Writer

	mu       sync.Mutex
	inflight map[*Query]struct{}
	recent   []*Query
	next     int
}

// NewRegistry builds a registry.
func NewRegistry(o Options) *Registry {
	if o.MaxRecent <= 0 {
		o.MaxRecent = 64
	}
	if o.Host == "" {
		o.Host = "local"
	}
	return &Registry{
		host:          o.Host,
		slowThreshold: o.SlowQueryThreshold,
		slowLog:       o.SlowQueryLog,
		maxRecent:     o.MaxRecent,
		listPasses:    o.ListPasses,
		inflight:      map[*Query]struct{}{},
		tenants:       map[string]*TenantSnapshot{},
	}
}

// Host returns the registry's process label.
func (r *Registry) Host() string { return r.host }

// QueriesStarted returns the number of queries this registry has minted
// or adopted.
func (r *Registry) QueriesStarted() int64 { return r.started.Load() }

// StartQuery mints a fresh trace for one kernel invocation.
func (r *Registry) StartQuery(kernel string) *Query {
	q := newQuery(r, TraceID(newID()), 0, kernel, false)
	r.track(q)
	return q
}

// StartPass starts the record of one tablet pass served here, adopting
// the requesting side's trace; parent is the requester's span ID. The
// pass's counters and spans travel back in its trailer — trace 0 (an
// untraced scan) still collects them, it just isn't attributable to a
// kernel — and a registry built with Options.ListPasses also tracks the
// pass for the /queries listing. End it with FinishPass.
func (r *Registry) StartPass(trace TraceID, parent uint64, name string) *Query {
	q := newQuery(r, trace, parent, name, true)
	r.Count(q, TabletScans, 1)
	r.Stats.Add(ScansInFlight, 1)
	if r.listPasses {
		r.track(q)
	}
	return q
}

// Count counts n of one counter where the work happens: into the process
// block and into the query it was done for (nil = untraced).
func (r *Registry) Count(q *Query, c Counter, n int64) {
	r.Stats.Add(c, n)
	q.Add(c, n)
}

// FoldTrailer folds a pass's trailer into q and into the process block
// and scan-pass histogram as well — for a coordinator of standalone
// servers, whose work reaches its process totals no other way.
func (r *Registry) FoldTrailer(q *Query, t *Trailer) {
	q.FoldTrailer(t)
	for c, v := range t.Counts {
		if v != 0 {
			r.Stats.Add(Counter(c), v)
		}
	}
	r.ScanPass.Fold(t.ScanPass)
}

// GaugeFunc registers the function a kindReadGauge counter is read
// through. Call before the registry is shared.
func (r *Registry) GaugeFunc(c Counter, read func() int64) { r.reads[c] = read }

// Counts snapshots the process block, read gauges included.
func (r *Registry) Counts() Counts {
	k := r.Stats.Counts()
	for c, read := range r.reads {
		if read != nil {
			k[c] = read()
		}
	}
	return k
}

func (r *Registry) track(q *Query) {
	r.started.Add(1)
	r.mu.Lock()
	r.inflight[q] = struct{}{}
	r.mu.Unlock()
}

// finishQuery moves q from in-flight to the recent ring and emits the
// slow-query log line when warranted.
func (r *Registry) finishQuery(q *Query) {
	r.mu.Lock()
	if _, ok := r.inflight[q]; !ok {
		r.mu.Unlock()
		return // double Finish, or a pass this registry does not list
	}
	delete(r.inflight, q)
	if len(r.recent) < r.maxRecent {
		r.recent = append(r.recent, q)
	} else {
		r.recent[r.next] = q
		r.next = (r.next + 1) % r.maxRecent
	}
	r.mu.Unlock()

	dur := q.end.Sub(q.start)
	if !q.remote {
		r.Kernel.Observe(dur)
		r.accumulateTenant(q)
	}
	if r.slowThreshold > 0 && dur >= r.slowThreshold && !q.remote {
		r.logSlow(q, dur)
	}
}

// accumulateTenant folds a finished kernel query into its tenant's
// running totals. The default tenant is exported as "default".
func (r *Registry) accumulateTenant(q *Query) {
	tenant := q.tenant
	if tenant == "" {
		tenant = "default"
	}
	counts := q.Stats.Counts()
	r.tenantMu.Lock()
	agg, ok := r.tenants[tenant]
	if !ok {
		agg = &TenantSnapshot{Tenant: tenant}
		r.tenants[tenant] = agg
	}
	agg.Queries++
	for c, v := range counts {
		agg.Counts[c] += v
	}
	r.tenantMu.Unlock()
}

// TenantSnapshot is one tenant's finished-query totals, accumulated for
// the /metrics per-tenant families.
type TenantSnapshot struct {
	Tenant  string
	Queries int64
	Counts  Counts
}

// TenantSnapshots lists per-tenant totals sorted by tenant label —
// the /metrics per-tenant families read this.
func (r *Registry) TenantSnapshots() []TenantSnapshot {
	r.tenantMu.Lock()
	out := make([]TenantSnapshot, 0, len(r.tenants))
	for _, agg := range r.tenants {
		out = append(out, *agg)
	}
	r.tenantMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// slowQueryRecord is one slow-query log line.
type slowQueryRecord struct {
	Time       time.Time     `json:"time"`
	Trace      string        `json:"trace"`
	Kernel     string        `json:"kernel"`
	DurationMS float64       `json:"duration_ms"`
	Err        string        `json:"error,omitempty"`
	Stats      Counts        `json:"stats"`
	ScanPassMS histQuantiles `json:"scan_pass_ms"`
	Spans      int           `json:"spans"`
}

type histQuantiles struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

func (r *Registry) logSlow(q *Query, dur time.Duration) {
	sp := q.ScanPass.Snapshot()
	q.mu.Lock()
	nspans := len(q.spans) + len(q.foreign)
	errMsg := q.errMsg
	q.mu.Unlock()
	rec := slowQueryRecord{
		Time:       q.end,
		Trace:      q.trace.String(),
		Kernel:     q.kernel,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Err:        errMsg,
		Stats:      q.Stats.Counts(),
		ScanPassMS: histQuantiles{
			P50: float64(sp.Quantile(0.50)) / float64(time.Millisecond),
			P99: float64(sp.Quantile(0.99)) / float64(time.Millisecond),
		},
		Spans: nspans,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	r.slowMu.Lock()
	if r.slowLog != nil {
		r.slowLog.Write(line)
	}
	r.slowMu.Unlock()
}

// Snapshot lists the registry's queries — in-flight first, then recent —
// newest first within each group.
func (r *Registry) Snapshot() []QuerySnapshot {
	r.mu.Lock()
	qs := make([]*Query, 0, len(r.inflight)+len(r.recent))
	for q := range r.inflight {
		qs = append(qs, q)
	}
	// Recent ring in insertion order, oldest first.
	if len(r.recent) == r.maxRecent {
		qs = append(qs, r.recent[r.next:]...)
		qs = append(qs, r.recent[:r.next]...)
	} else {
		qs = append(qs, r.recent...)
	}
	r.mu.Unlock()
	out := make([]QuerySnapshot, len(qs))
	for i, q := range qs {
		out[i] = q.Snapshot()
	}
	// Newest first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FormatTree renders a query's span tree for `graphulo trace` output.
func FormatTree(q QuerySnapshot) string {
	byParent := map[uint64][]SpanSnapshot{}
	ids := map[uint64]bool{}
	for _, s := range q.Spans {
		ids[s.ID] = true
	}
	var roots []SpanSnapshot
	for _, s := range q.Spans {
		if s.Parent != 0 && ids[s.Parent] {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b []byte
	b = append(b, fmt.Sprintf("trace %s %s host=%s %s", q.Trace, q.Kernel, q.Host, fmtDur(q.Duration))...)
	if q.Err != "" {
		b = append(b, fmt.Sprintf(" error=%q", q.Err)...)
	}
	b = append(b, '\n')
	var walk func(s SpanSnapshot, depth int)
	walk = func(s SpanSnapshot, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, "  "...)
		}
		dur := fmtDur(s.Duration)
		if !s.Done {
			dur = "open"
		}
		b = append(b, fmt.Sprintf("- %s %s host=%s\n", s.Name, dur, s.Host)...)
		kids := byParent[s.ID]
		sortSpans(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	sortSpans(roots)
	for _, s := range roots {
		walk(s, 1)
	}
	if q.Dropped > 0 {
		b = append(b, fmt.Sprintf("  (+%d spans dropped)\n", q.Dropped)...)
	}
	return string(b)
}

func sortSpans(spans []SpanSnapshot) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start.Before(spans[j-1].Start); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
