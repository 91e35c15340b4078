package accumulo

// This file is the tablet server — the only one. A TabletServer hosts
// tablets in a registry keyed by (table, row range) and serves the five
// tablet-server ops over a transport endpoint. Every write batch and
// every scan — client-issued or opened by a server-side iterator —
// arrives here through the transport, whether that meant a channel
// hand-off or a TCP socket, and the traffic a scan stack originates
// (nested scans, RemoteWrite batches) leaves through a router driven by
// the topology the scan request carried, so TableMult's tablet→tablet
// partial-product flow needs no shared metadata service.
//
// A coordinator (MiniCluster) either launches N servers on its own
// transport and hands them the tablets it built — in-memory or durable —
// by pointer, or dials N standalone ones (`graphulo serve`) and assigns
// tablets over the wire. Both run this code; what differs is the data a
// server holds: a launched server counts into the coordinator's telemetry
// registry and stamps from the coordinator's clock, a standalone one owns
// both.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// TabletServer is one tablet-server endpoint.
type TabletServer struct {
	// tr carries the traffic this server's scan stacks originate. A
	// standalone server owns it (Close releases it); a launched server
	// borrows the coordinator's.
	tr            transport.Transport
	ownsTransport bool
	srv           transport.Server
	memLimit      int // memtable bound of tablets created by opAssign

	// clock stamps every batch this server ingests. A cell lives on
	// exactly one server, so a per-server monotone clock is per-cell
	// monotone; launched servers share the coordinator's so the manifest
	// persists one clock.
	clock *atomic.Int64
	// tel holds the process counter block everything this server does is
	// counted into, and the record of the passes it serves.
	tel *telemetry.Registry

	telSrv *telemetry.Server

	mu     sync.RWMutex
	tables map[string][]hostedTablet
}

type hostedTablet struct {
	start, end string
	tab        *tablet.Tablet
}

// ListenAndServeTablets starts a standalone tablet server on addr
// (host:port; an empty addr picks an ephemeral loopback port). memLimit
// bounds each hosted tablet's memtable (0 selects the default, 1<<14).
// Standalone servers host in-memory tablets and speak the minimal
// control plane (assign/drop); durability and tablet-level admin
// (splits, compactions) remain features of coordinator-launched servers.
// The server runs until Close.
func ListenAndServeTablets(addr string, memLimit int) (*TabletServer, error) {
	if memLimit <= 0 {
		memLimit = 1 << 14
	}
	s := &TabletServer{
		tr:            transport.NewTCP(),
		ownsTransport: true,
		memLimit:      memLimit,
		clock:         new(atomic.Int64),
	}
	if err := s.listen(addr); err != nil {
		s.tr.Close()
		return nil, err
	}
	// The registry labels this server's pass spans with its dialable
	// address, so a cross-process trace shows where each pass ran, and
	// lists the passes it served on /queries.
	s.tel = telemetry.NewRegistry(telemetry.Options{Host: s.Addr(), ListPasses: true})
	return s, nil
}

// listen starts the server's endpoint on its transport.
func (s *TabletServer) listen(addr string) error {
	s.tables = map[string][]hostedTablet{}
	srv, err := s.tr.Listen(addr, &tabletHandler{s: s})
	if err != nil {
		return err
	}
	s.srv = srv
	return nil
}

// Addr returns the server's dialable address.
func (s *TabletServer) Addr() string { return s.srv.Addr() }

// Telemetry returns the server's telemetry registry: its process counter
// block and latency histograms, and the passes it has served.
func (s *TabletServer) Telemetry() *telemetry.Registry { return s.tel }

// StartTelemetry starts the server's telemetry HTTP endpoint on addr
// (/metrics, /queries, /debug/pprof) and returns its bound address.
func (s *TabletServer) StartTelemetry(addr string) (string, error) {
	srv, err := telemetry.Serve(addr, s.tel)
	if err != nil {
		return "", err
	}
	s.telSrv = srv
	return srv.Addr(), nil
}

// Close stops serving: in-flight scan passes observe send failures, and
// Close returns once the endpoint's connections have drained.
func (s *TabletServer) Close() error {
	if s.telSrv != nil {
		s.telSrv.Close()
	}
	err := s.srv.Close()
	if s.ownsTransport {
		if cerr := s.tr.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// errNotHosted is the failure of a request that names a tablet range
// this server does not host: the tablet was split, dropped or never
// assigned after the sender snapshotted its routing. Surfacing it is
// strictly better than silently serving a different range.
var errNotHosted = errors.New("tablet not hosted")

// resolve locates a hosted tablet by its exact row range.
func (s *TabletServer) resolve(table, start, end string) (*tablet.Tablet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ht := range s.tables[table] {
		if ht.start == start && ht.end == end {
			return ht.tab, nil
		}
	}
	return nil, fmt.Errorf("accumulo: tablet [%q,%q) of table %q on %s: %w (split or drop raced the request?)",
		start, end, table, s.Addr(), errNotHosted)
}

// host registers tab as the tablet serving [start, end) of table. A
// tablet already hosted under the same range is replaced.
func (s *TabletServer) host(table, start, end string, tab *tablet.Tablet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := hostedTablet{start: start, end: end, tab: tab}
	for i, ht := range s.tables[table] {
		if ht.start == start && ht.end == end {
			s.tables[table][i] = fresh
			return
		}
	}
	s.tables[table] = append(s.tables[table], fresh)
}

// unhost releases the tablet serving [start, end) of table; requests
// still naming the range answer errNotHosted.
func (s *TabletServer) unhost(table, start, end string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hosted := s.tables[table]
	for i, ht := range hosted {
		if ht.start == start && ht.end == end {
			s.tables[table] = append(hosted[:i], hosted[i+1:]...)
			return
		}
	}
}

// assign hosts a fresh empty in-memory tablet. Assignment happens at
// table creation, so it replaces a tablet of the same range: the
// coordinator that just created the table expects it empty, and stale
// data from an earlier coordinator run must not leak into it.
func (s *TabletServer) assign(table, start, end string) {
	tab := tablet.New(start, end, s.memLimit, 0)
	tab.SetStats(&s.tel.Stats)
	s.host(table, start, end, tab)
}

// drop releases every hosted tablet of a table.
func (s *TabletServer) drop(table string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tables, table)
}

// tabletHandler adapts the TabletServer to transport.Handler.
type tabletHandler struct {
	s *TabletServer
}

// Call implements transport.Handler. The header is read, and the
// request rejected if malformed, before any op acts.
func (h *tabletHandler) Call(op byte, req []byte) ([]byte, error) {
	s := h.s
	hdr, batch, err := decodeCall(op, req)
	if err != nil {
		return nil, err
	}
	switch op {
	case opPing:
	case opAssign:
		s.assign(hdr.table, hdr.start, hdr.end)
	case opDrop:
		s.drop(hdr.table)
	case opWrite:
		entries, err := skv.DecodeBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("accumulo: wire corruption: %w", err)
		}
		tab, err := s.resolve(hdr.table, hdr.start, hdr.end)
		if err != nil {
			return nil, err
		}
		// Stamps are assigned where the tablet lives: a block of fresh
		// consecutive timestamps from the hosting server's clock, in batch
		// order, so a later put to a cell carries the newer stamp whoever
		// sent it — a client or another server's RemoteWrite.
		n := int64(len(entries))
		first := s.clock.Add(n) - n + 1
		for i := range entries {
			entries[i].K.Ts = first + int64(i)
		}
		if err := tab.Write(entries); err != nil {
			return nil, fmt.Errorf("accumulo: tablet write: %w", err)
		}
	default:
		return nil, fmt.Errorf("accumulo: unknown unary op %d", op)
	}
	return nil, nil
}

// Stream implements transport.Handler: opScan — the only streaming op —
// runs the request's merged stack over the hosted tablet, with an env
// that routes server-side iterator traffic by the request's topology.
func (h *tabletHandler) Stream(op byte, req []byte, send func([]byte) error) error {
	s := h.s
	if op != opScan {
		return fmt.Errorf("accumulo: unknown streaming op %d", op)
	}
	hdr, sr, err := decodeScanReq(req)
	if err != nil {
		return err
	}
	tab, err := s.resolve(hdr.table, hdr.start, hdr.end)
	if err != nil {
		return err
	}
	pass := s.tel.StartPass(telemetry.TraceID(hdr.trace), hdr.span,
		fmt.Sprintf("pass %s [%s,%s)", hdr.table, hdr.start, hdr.end)).WithTenant(hdr.tenant)
	env := &scanEnv{
		r:  &router{tr: s.tr, tel: s.tel, topo: sr.topo, topoRaw: sr.topoRaw},
		tc: traceCtx{q: pass},
	}
	defer env.close()
	before := s.tel.Stats.Counts()
	err = serveScan(tab.Snapshot(sr.families...), sr.ranges, sr.settings, env, sr.batch, pass, send)
	// Storage deltas are attributed to this pass; concurrent passes on
	// one store blur the split, but the totals stay exact.
	pass.AddStorageSince(before)
	// The pass closes, its duration feeds this process's scan-pass
	// histogram, and the telemetry trailer ships as the stream's final
	// frame. Trailer delivery is best-effort: a consumer that already went
	// away loses only telemetry, not data.
	pass.FinishPass(err)
	_ = send(append([]byte{frameTrailer}, telemetry.AppendTrailer(nil, pass.Trailer())...))
	return err
}

// serveScan runs a fully merged scan stack over a tablet snapshot and
// ships the results through send one skv-codec batch at a time — the
// server half of every scan. The stack is built once and sought per
// request range (the ranges arrive sorted and disjoint, so the shipped
// stream stays in key order); an empty range list means the tablet's
// full range. send blocking is the backpressure; a send failure means
// the consumer went away, which cancels the pass.
func serveScan(src iterator.SKVI, ranges []skv.Range, settings []iterator.Setting, env iterator.Env, batchSize int, pass *telemetry.Query, send func([]byte) error) error {
	if batchSize <= 0 {
		batchSize = 4096
	}
	if len(ranges) == 0 {
		ranges = []skv.Range{skv.FullRange()}
	}
	setup := pass.StartSpan(0, "stack setup")
	stack, err := iterator.BuildStack(src, settings, env)
	setup.End()
	if err != nil {
		return err
	}
	// The batch grows on demand and is reused between ships. Most passes
	// (a BFS hop's handful of rows) deliver far fewer than batchSize
	// entries; sizing it up front would hand the collector batchSize
	// pointerful entries to scan for every one of them.
	var batch []skv.Entry
	ship := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := send(append([]byte{frameEntries}, skv.EncodeBatch(batch)...))
		batch = batch[:0]
		return err
	}
	for _, rng := range ranges {
		if err := stack.Seek(rng); err != nil {
			return err
		}
		for stack.HasTop() {
			batch = append(batch, stack.Top())
			if len(batch) >= batchSize {
				if err := ship(); err != nil {
					return err
				}
			}
			if err := stack.Next(); err != nil {
				return err
			}
		}
	}
	return ship()
}
