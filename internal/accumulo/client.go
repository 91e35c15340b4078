package accumulo

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/store"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
)

// Connector is a client handle to the cluster, mirroring Accumulo's
// Connector API surface: TableOperations plus writer/scanner factories.
type Connector struct {
	mc *MiniCluster
}

// Cluster exposes the underlying mini-cluster (for metrics and failure
// injection in tests and benches).
func (c *Connector) Cluster() *MiniCluster { return c.mc }

// TableOperations returns the table admin interface.
func (c *Connector) TableOperations() *TableOperations {
	return &TableOperations{mc: c.mc}
}

// TableOperations administers tables: create, delete, splits, iterator
// attachment, and compactions.
type TableOperations struct {
	mc *MiniCluster
}

// Create makes an empty table with a single tablet and the default
// versioning iterator (maxVersions = 1) at every scope.
func (t *TableOperations) Create(name string) error {
	return t.CreateWithSplits(name, nil)
}

// CreateWithSplits makes a table pre-split at the given row boundaries.
// On a durable cluster the table — splits, iterator settings, and
// per-tablet storage — is registered in the manifest before the call
// returns.
func (t *TableOperations) CreateWithSplits(name string, splits []string) error {
	if name == "" {
		return fmt.Errorf("accumulo: empty table name")
	}
	t.mc.mu.Lock()
	defer t.mc.mu.Unlock()
	if _, dup := t.mc.tables[name]; dup {
		return fmt.Errorf("accumulo: table %q already exists", name)
	}
	meta := t.mc.newTableMeta(name)
	for _, s := range AllScopes {
		meta.iters[s] = []iterator.Setting{{Name: "versioning", Priority: 20,
			Opts: map[string]string{"maxVersions": "1"}}}
	}
	sorted := append([]string(nil), splits...)
	sort.Strings(sorted)
	meta.splits = sorted
	bounds := append([]string{""}, sorted...)
	ranges := make([][2]string, len(bounds))
	for i, start := range bounds {
		end := ""
		if i < len(sorted) {
			end = sorted[i]
		}
		ranges[i] = [2]string{start, end}
	}
	var backings []*store.TabletStore
	if t.mc.dir != nil {
		iters := map[string][]iterator.Setting{}
		for s, list := range meta.iters {
			iters[scopeNames[s]] = list
		}
		var err error
		backings, err = t.mc.dir.CreateTable(name, sorted, iters, ranges)
		if err != nil {
			return fmt.Errorf("accumulo: persisting table %q: %w", name, err)
		}
	}
	for i, rng := range ranges {
		server := i % t.mc.cfg.TabletServers
		ref := &tabletRef{
			server:   server,
			start:    rng[0],
			end:      rng[1],
			endpoint: t.mc.endpoints[server],
		}
		switch {
		case t.mc.external():
			// The tablet lives in the external server process; assign it
			// there and keep only the routing entry.
			hdr := reqHeader{table: name, start: rng[0], end: rng[1]}
			if err := call(t.mc.tr, ref.endpoint, opAssign, encodeCall(opAssign, hdr, nil)); err != nil {
				return fmt.Errorf("accumulo: assigning tablet of %q to %s: %w", name, ref.endpoint, err)
			}
		case backings != nil:
			ref.tab = tablet.NewDurable(rng[0], rng[1], t.mc.cfg.MemLimit, backings[i], nil, nil)
		default:
			ref.tab = tablet.New(rng[0], rng[1], t.mc.cfg.MemLimit, 0)
		}
		if ref.tab != nil {
			// Built here, hosted on the launched server by pointer.
			t.mc.initTablet(ref.tab, meta)
			t.mc.servers[server].host(name, rng[0], rng[1], ref.tab)
		}
		meta.tablets = append(meta.tablets, ref)
	}
	t.mc.tables[name] = meta
	t.mc.topologyChanged()
	return nil
}

// Delete removes a table, including its on-disk files in durable mode.
func (t *TableOperations) Delete(name string) error {
	meta, err := t.mc.getTable(name)
	if err != nil {
		return err
	}
	// Close the run bound before taking the cluster lock: Close waits
	// out an in-flight merge, whose majc stack may need cluster reads
	// (the router, remote majc-scope iterators). Nothing merges into the
	// table's files after this.
	meta.bound.Close()
	t.mc.mu.Lock()
	defer t.mc.mu.Unlock()
	if t.mc.tables[name] != meta {
		// A concurrent Delete removed it first.
		return fmt.Errorf("accumulo: table %q does not exist", name)
	}
	if t.mc.dir != nil {
		if err := t.mc.dir.DropTable(name); err != nil {
			return fmt.Errorf("accumulo: dropping table %q: %w", name, err)
		}
	}
	delete(t.mc.tables, name)
	t.mc.topologyChanged()
	// Release the hosted tablets — by pointer on launched servers, over
	// the wire on standalone ones.
	for _, srv := range t.mc.servers {
		srv.drop(name)
	}
	if !t.mc.external() {
		return nil
	}
	// A recreated table of the same name must start empty on the servers
	// too. The local entry is already gone — a per-endpoint failure must
	// not leave a half-dropped table still routable — and every endpoint
	// is attempted before reporting the first error; tablets on an
	// endpoint whose drop failed are replaced at the next assign.
	var firstErr error
	for _, ep := range t.mc.endpoints {
		err := call(t.mc.tr, ep, opDrop, encodeCall(opDrop, reqHeader{table: name}, nil))
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("accumulo: dropping table %q on %s: %w", name, ep, err)
		}
	}
	return firstErr
}

// Exists reports whether the table exists.
func (t *TableOperations) Exists(name string) bool {
	t.mc.mu.RLock()
	defer t.mc.mu.RUnlock()
	_, ok := t.mc.tables[name]
	return ok
}

// List returns the sorted table names.
func (t *TableOperations) List() []string {
	t.mc.mu.RLock()
	defer t.mc.mu.RUnlock()
	var names []string
	for n := range t.mc.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddSplits splits existing tablets at the given row boundaries.
func (t *TableOperations) AddSplits(name string, splits []string) error {
	if err := t.mc.errExternal("AddSplits"); err != nil {
		return err
	}
	meta, err := t.mc.getTable(name)
	if err != nil {
		return err
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	defer t.mc.topologyChanged()
	for _, s := range splits {
		idx := sort.SearchStrings(meta.splits, s)
		if idx < len(meta.splits) && meta.splits[idx] == s {
			continue // already a boundary
		}
		// Find the tablet containing s and split it. Durable tablets
		// swap their on-disk state for the two halves' atomically.
		tIdx := idx // tablets[idx] covers (splits[idx-1], splits[idx])
		old := meta.tablets[tIdx]
		left, right, err := old.tab.SplitAt(s)
		if err != nil {
			return fmt.Errorf("accumulo: splitting %q at %q: %w", name, s, err)
		}
		meta.splits = append(meta.splits, "")
		copy(meta.splits[idx+1:], meta.splits[idx:])
		meta.splits[idx] = s
		meta.tablets = append(meta.tablets, nil)
		copy(meta.tablets[tIdx+2:], meta.tablets[tIdx+1:])
		rightServer := (old.server + 1) % t.mc.cfg.TabletServers
		meta.tablets[tIdx] = &tabletRef{tab: left, server: old.server,
			start: old.start, end: s, endpoint: t.mc.endpoints[old.server]}
		meta.tablets[tIdx+1] = &tabletRef{tab: right, server: rightServer,
			start: s, end: old.end, endpoint: t.mc.endpoints[rightServer]}
		// Re-host: the halves serve from here on, and a request still
		// routed by the old range is told it is no longer hosted. A pass
		// already running over the retired tablet finishes on its snapshot.
		t.mc.servers[old.server].host(name, old.start, s, left)
		t.mc.servers[rightServer].host(name, s, old.end, right)
		t.mc.servers[old.server].unhost(name, old.start, old.end)
	}
	return nil
}

// errExternal rejects tablet-level admin operations on clusters whose
// tablets live in external server processes: the minimal control plane
// those servers speak (assign/drop/write/scan) does not cover them.
func (mc *MiniCluster) errExternal(op string) error {
	if mc.external() {
		return fmt.Errorf("accumulo: %s is not supported with external tablet servers", op)
	}
	return nil
}

// Splits returns the table's current split points.
func (t *TableOperations) Splits(name string) ([]string, error) {
	meta, err := t.mc.getTable(name)
	if err != nil {
		return nil, err
	}
	meta.mu.RLock()
	defer meta.mu.RUnlock()
	return append([]string(nil), meta.splits...), nil
}

// AttachIterator adds an iterator setting to the named scopes (defaults
// to all scopes when none given) — Accumulo's attachIterator.
func (t *TableOperations) AttachIterator(name string, setting iterator.Setting, scopes ...Scope) error {
	meta, err := t.mc.getTable(name)
	if err != nil {
		return err
	}
	if _, err := iterator.Lookup(setting.Name); err != nil {
		return err
	}
	if len(scopes) == 0 {
		scopes = AllScopes
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	for _, s := range scopes {
		for _, existing := range meta.iters[s] {
			if existing.Priority == setting.Priority {
				return fmt.Errorf("accumulo: priority %d already used in scope %d", setting.Priority, s)
			}
		}
		meta.iters[s] = append(meta.iters[s], setting)
	}
	t.mc.topologyChanged()
	return t.mc.persistIters(meta)
}

// IteratorSettings returns a copy of the table's iterator stack at one
// scope, so callers can verify a table's combiner configuration before
// writing through it.
func (t *TableOperations) IteratorSettings(name string, scope Scope) ([]iterator.Setting, error) {
	meta, err := t.mc.getTable(name)
	if err != nil {
		return nil, err
	}
	meta.mu.RLock()
	defer meta.mu.RUnlock()
	return append([]iterator.Setting(nil), meta.iters[scope]...), nil
}

// RemoveIterator removes the named iterator from the given scopes
// (default all).
func (t *TableOperations) RemoveIterator(name, iterName string, scopes ...Scope) error {
	meta, err := t.mc.getTable(name)
	if err != nil {
		return err
	}
	if len(scopes) == 0 {
		scopes = AllScopes
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	for _, s := range scopes {
		var kept []iterator.Setting
		for _, it := range meta.iters[s] {
			if it.Name != iterName {
				kept = append(kept, it)
			}
		}
		meta.iters[s] = kept
	}
	t.mc.topologyChanged()
	return t.mc.persistIters(meta)
}

// Flush minor-compacts every tablet, applying the minc stack; each
// tablet then folds runs past Config.MaxRunsPerTablet.
func (t *TableOperations) Flush(name string) error {
	if err := t.mc.errExternal("Flush"); err != nil {
		return err
	}
	meta, err := t.mc.getTable(name)
	if err != nil {
		return err
	}
	stack := t.mc.compactionStack(meta, MincScope)
	for _, tr := range meta.tabletsOverlapping(skv.FullRange()) {
		if err := tr.tab.MinorCompact(stack); err != nil {
			return err
		}
	}
	return nil
}

// Compact major-compacts every tablet, applying the majc stack.
func (t *TableOperations) Compact(name string) error {
	if err := t.mc.errExternal("Compact"); err != nil {
		return err
	}
	meta, err := t.mc.getTable(name)
	if err != nil {
		return err
	}
	stack := t.mc.compactionStack(meta, MajcScope)
	for _, tr := range meta.tabletsOverlapping(skv.FullRange()) {
		if err := tr.tab.MajorCompact(stack); err != nil {
			return err
		}
		t.mc.tel.Stats.Add(telemetry.MajorCompactions, 1)
	}
	return nil
}

// TabletRuns returns the table's per-tablet immutable-run counts, in
// tablet order — the k-way merge width each tablet's scans pay. After
// every flush each is at most Config.MaxRunsPerTablet, when set.
func (t *TableOperations) TabletRuns(name string) ([]int, error) {
	if err := t.mc.errExternal("TabletRuns"); err != nil {
		return nil, err
	}
	meta, err := t.mc.getTable(name)
	if err != nil {
		return nil, err
	}
	meta.mu.RLock()
	defer meta.mu.RUnlock()
	out := make([]int, len(meta.tablets))
	for i, tr := range meta.tablets {
		out[i] = tr.tab.RunCount()
	}
	return out, nil
}

// EntryEstimate sums the per-tablet entry estimates.
func (t *TableOperations) EntryEstimate(name string) (int, error) {
	if err := t.mc.errExternal("EntryEstimate"); err != nil {
		return 0, err
	}
	meta, err := t.mc.getTable(name)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, tr := range meta.tabletsOverlapping(skv.FullRange()) {
		n += tr.tab.EntryEstimate()
	}
	return n, nil
}

// --- BatchWriter ---

// BatchWriterConfig sizes a BatchWriter.
type BatchWriterConfig struct {
	// MaxBufferEntries flushes automatically past this many buffered
	// entries (default 8192).
	MaxBufferEntries int
	// MaxRetries bounds retransmission of a failed flush (default 3).
	MaxRetries int
}

// BatchWriter buffers mutations client-side and ships them to tablet
// servers in batches, retrying transient failures.
type BatchWriter struct {
	mc    *MiniCluster
	table string
	cfg   BatchWriterConfig
	q     *telemetry.Query

	mu  sync.Mutex
	buf []skv.Entry
}

// SetTrace attributes the writer's flushes to a kernel query: wire
// bytes, RPCs, and written-entry counts land in the query's stats (nil
// detaches).
func (w *BatchWriter) SetTrace(q *telemetry.Query) { w.q = q }

// CreateBatchWriter opens a writer for the table.
func (c *Connector) CreateBatchWriter(table string, cfg BatchWriterConfig) (*BatchWriter, error) {
	if _, err := c.mc.getTable(table); err != nil {
		return nil, err
	}
	if cfg.MaxBufferEntries <= 0 {
		cfg.MaxBufferEntries = 8192
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	return &BatchWriter{mc: c.mc, table: table, cfg: cfg}, nil
}

// Put buffers one cell write. The timestamp is assigned server-side at
// flush time.
func (w *BatchWriter) Put(row, colF, colQ string, value skv.Value) error {
	w.mu.Lock()
	w.buf = append(w.buf, skv.Entry{K: skv.Key{Row: row, ColF: colF, ColQ: colQ}, V: value})
	full := len(w.buf) >= w.cfg.MaxBufferEntries
	w.mu.Unlock()
	if full {
		return w.Flush()
	}
	return nil
}

// PutFloat buffers a numeric cell write.
func (w *BatchWriter) PutFloat(row, colF, colQ string, v float64) error {
	return w.Put(row, colF, colQ, skv.EncodeFloat(v))
}

// Flush ships all buffered mutations, retrying transient failures.
// Only ErrTransient failures — which happen before any tablet absorbed
// entries — are retried; a failure mid-batch (e.g. a WAL I/O error on
// one of several tablets) returns immediately, because re-sending
// would re-stamp entries some tablets already hold and double their
// values under sum combiners.
func (w *BatchWriter) Flush() error {
	w.mu.Lock()
	batch := w.buf
	w.buf = nil
	w.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	var err error
	for attempt := 0; attempt <= w.cfg.MaxRetries; attempt++ {
		if err = w.mc.write(w.table, batch, w.q); err == nil {
			return nil
		}
		if !errors.Is(err, ErrTransient) {
			return fmt.Errorf("accumulo: batch writer: %w", err)
		}
	}
	return fmt.Errorf("accumulo: batch writer gave up after %d retries: %w", w.cfg.MaxRetries, err)
}

// Close flushes and invalidates the writer.
func (w *BatchWriter) Close() error { return w.Flush() }

// --- Scanner ---

// Scanner is the one client read path: a sorted scan over one range —
// or, with SetRanges, over many ranges served in key order by one
// streaming pipeline, in which each overlapping tablet runs a single
// pass over its clips of every range. Either way only tablets
// overlapping the ranges execute the scan's iterator stack (SpRef-style
// range push-down), up to ScanParallelism of them at once.
type Scanner struct {
	mc       *MiniCluster
	table    string
	ranges   []skv.Range
	families []string
	extra    []iterator.Setting
	q        *telemetry.Query
}

// CreateScanner opens a scanner on the table (full range by default).
func (c *Connector) CreateScanner(table string) (*Scanner, error) {
	if _, err := c.mc.getTable(table); err != nil {
		return nil, err
	}
	return &Scanner{mc: c.mc, table: table}, nil
}

// SetRange restricts the scan to one range.
func (s *Scanner) SetRange(rng skv.Range) { s.ranges = []skv.Range{rng} }

// SetRanges restricts the scan to several ranges, served in one sorted
// stream: the ranges are coalesced (sorted, overlaps merged) at scan
// time, each tablet executes one pass covering its clips of every
// range, and tablets no range touches never run the stack. An empty
// list means an empty scan — zero ranges select zero keys, exactly as
// a dynamically computed range set would expect — not the full table
// (that is the scanner's default before any SetRange/SetRanges call).
func (s *Scanner) SetRanges(ranges []skv.Range) {
	if len(ranges) == 0 {
		// A deliberately empty range: normalizeRanges coalesces it away
		// and the scan returns nothing, distinct from the nil "never
		// restricted" state.
		s.ranges = []skv.Range{{HasStart: true, HasEnd: true}}
		return
	}
	s.ranges = append([]skv.Range(nil), ranges...)
}

// AddScanIterator attaches a per-scan iterator setting.
func (s *Scanner) AddScanIterator(setting iterator.Setting) { s.extra = append(s.extra, setting) }

// SetFamilies constrains the scan to a column-family set (nil/empty =
// unconstrained). The constraint rides every per-tablet request, so
// serving tablets read only the matching locality-group block runs of
// their rfiles — a column-band scan skips the other families' blocks
// entirely (counted as locality_blocks_skipped).
func (s *Scanner) SetFamilies(families ...string) {
	s.families = append([]string(nil), families...)
}

// SetTrace attributes the scanner's streams to a kernel query: wire
// counters land in the query's stats and each scan becomes a span in
// its trace. nil (the default) leaves the scans untraced.
func (s *Scanner) SetTrace(q *telemetry.Query) { s.q = q }

// Stream executes the scan as a streaming cursor: entries arrive in key
// order while up to ScanParallelism tablets are scanned concurrently,
// and the client holds wire batches rather than the full result. The
// caller should Close the stream (a full drain also releases it).
func (s *Scanner) Stream() (*EntryStream, error) {
	return s.mc.openStream(s.table, s.ranges, s.families, s.extra, traceCtx{q: s.q})
}

// Entries executes the scan and returns the sorted results — the
// collect-all convenience over Stream for small results.
func (s *Scanner) Entries() ([]skv.Entry, error) {
	st, err := s.Stream()
	if err != nil {
		return nil, err
	}
	return st.Collect()
}
