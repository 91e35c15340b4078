package accumulo

// This file is the one router: the per-tablet scan fan-out and the routed
// write, driven by a topology snapshot. The coordinator routes client
// scans and writes through a router over the topology it snapshots from
// its metadata; a tablet server routes the traffic a scan stack
// originates — nested scans, RemoteWrite batches — through a router over
// the topology the scan request carried. Both move the actual bytes
// through the transport.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// router routes scans and writes to the tablet servers a topology names.
// Traffic is counted into the routing process's registry and the query it
// belongs to.
type router struct {
	tr      transport.Transport
	tel     *telemetry.Registry
	topo    *topology
	topoRaw []byte // encoded form of topo, spliced verbatim into every scan request
	// version is the coordinator metadata version the topology was
	// snapshotted at (see MiniCluster.router); unused on servers.
	version uint64

	// foldGlobals makes pass trailers count into the process block as well
	// as into the query: set by a coordinator of standalone servers, whose
	// work reaches it no other way. A launched server already counts into
	// the coordinator's registry, and a server folding a nested pass counts
	// only its own work globally — the pass's trailer carries the
	// aggregate up to the query's origin.
	foldGlobals bool
}

// openStream starts a streaming scan over one or more ranges: per
// tablet overlapping any range, a fetch worker opens a remote scan on
// the tablet's endpoint carrying the fully merged stack (table scan
// scope + per-scan extras), the per-tablet clip of every range and the
// routing topology, and relays the streamed batches to the cursor.
// Tablets no range touches are pruned without a scan pass (SpRef
// push-down), counted as tablets_pruned_by_range. An empty range
// list means the full table. A non-empty families set rides every
// per-tablet request so the serving tablets scope their snapshots to the
// matching locality groups.
func (r *router) openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting, tc traceCtx) (*EntryStream, error) {
	tt := r.topo.find(table)
	if tt == nil {
		return nil, fmt.Errorf("accumulo: table %q does not exist in the routing topology", table)
	}
	q := tc.q
	r.tel.Count(q, telemetry.ScansStarted, 1)
	ranges, empty := normalizeRanges(ranges)
	if empty {
		// Every requested range is empty: a scan of nothing.
		return startStream(&r.tel.Stats, 1, 0, nil), nil
	}
	settings := append(append([]iterator.Setting(nil), tt.scan...), extra...)
	span := q.StartSpan(tc.parent, "scan "+table)
	onTrailer := func(t *telemetry.Trailer) error {
		if r.foldGlobals {
			r.tel.FoldTrailer(q, t)
		} else {
			q.FoldTrailer(t)
		}
		// Budgets are enforced where the counters land: the trailer is how
		// a server-side kernel's scan and write volume reaches the query,
		// so it is also where that volume is charged. (Entries relayed to
		// the client are charged separately, at delivery.)
		if err := q.ChargeScanEntries(t.Counts.Get(telemetry.EntriesScanned)); err != nil {
			return err
		}
		return q.ChargeWriteBytes(t.Counts.Get(telemetry.WriteWireBytes))
	}
	type fetch struct {
		tablet topoTablet
		ranges []skv.Range // the scan's ranges clipped to the tablet
	}
	var fetches []fetch
	for _, tb := range tt.tablets {
		if clipped := clipRanges(ranges, tb.start, tb.end); len(clipped) > 0 {
			fetches = append(fetches, fetch{tb, clipped})
		}
	}
	r.tel.Count(q, telemetry.TabletsPrunedByRange, int64(len(tt.tablets)-len(fetches)))
	spanID := span.ID()
	s := startStream(&r.tel.Stats, r.topo.scanPar, len(fetches),
		func(i int, out *tabletScan, done <-chan struct{}) {
			f := fetches[i]
			req := encodeScanReq(reqHeader{
				table: table, start: f.tablet.start, end: f.tablet.end,
				trace: uint64(q.Trace()), span: spanID, tenant: q.Tenant(),
			}, scanReq{
				ranges: f.ranges, settings: settings,
				batch:    r.topo.wireBatch,
				families: families,
				topoRaw:  r.topoRaw,
			})
			out.err = relayScan(r.tr, r.tel, q, f.tablet.endpoint, req, out.batches, done, onTrailer)
		})
	s.onDone = span.End
	return s, nil
}

// normalizeRanges coalesces a scan's requested ranges. No ranges at all
// means the full range; ranges that are all empty mean an empty scan
// (empty=true) — the two must not be conflated.
func normalizeRanges(ranges []skv.Range) (_ []skv.Range, empty bool) {
	if len(ranges) == 0 {
		return []skv.Range{skv.FullRange()}, false
	}
	coalesced := skv.CoalesceRanges(ranges)
	return coalesced, len(coalesced) == 0
}

// clipRanges intersects each (sorted, coalesced) range with a tablet's
// row band, dropping empty intersections.
func clipRanges(ranges []skv.Range, start, end string) []skv.Range {
	band := skv.RowRange(start, end)
	var out []skv.Range
	for _, r := range ranges {
		if c := r.Clip(band); !c.IsEmpty() {
			out = append(out, c)
		}
	}
	return out
}

// ErrTransient marks a write failure that happened before any tablet
// absorbed entries, so the whole batch may safely be retried. That
// covers failure injection and tablet servers that are unreachable
// (transport.ErrUnavailable — the request was never sent). Failures
// past that point (e.g. a WAL I/O error on one tablet of several, or a
// connection dying after the request went out) are NOT transient: some
// tablet may already hold the entries, and a retry would re-stamp and
// double them under sum combiners.
var ErrTransient = errors.New("transient write failure")

// write is the routed ingest path: entries are grouped by tablet and
// shipped to each tablet's server over the transport as one
// codec-serialised batch per tablet, in tablet order (so a mid-batch
// failure leaves the same tablets written on every run). The hosting
// server stamps each batch on arrival; entries of one cell share a
// tablet and keep their input order, so a later put carries the newer
// stamp. q (nil = untraced) receives the batch's per-query wire
// counters and is charged its write budget.
func (r *router) write(table string, entries []skv.Entry, q *telemetry.Query) error {
	tt := r.topo.find(table)
	if tt == nil {
		return fmt.Errorf("accumulo: table %q does not exist in the routing topology", table)
	}
	start := time.Now()
	defer func() { r.tel.WriteBatch.Observe(time.Since(start)) }()
	groups := groupByTablet(entries, len(tt.tablets), func(i int) string { return tt.tablets[i].end })
	wrote := false
	for i, batch := range groups {
		if len(batch) == 0 {
			continue
		}
		tb := tt.tablets[i]
		wire := skv.EncodeBatch(batch)
		// Budget enforcement shares the wire-byte counting site: the charge
		// happens before the batch ships, so an over-budget query fails
		// without the write landing.
		if err := q.ChargeWriteBytes(int64(len(wire))); err != nil {
			return fmt.Errorf("accumulo: %w", err)
		}
		r.tel.Count(q, telemetry.WireBytes, int64(len(wire)))
		r.tel.Count(q, telemetry.WriteWireBytes, int64(len(wire)))
		r.tel.Count(q, telemetry.RPCs, 1)
		hdr := reqHeader{table: table, start: tb.start, end: tb.end, trace: uint64(q.Trace()), tenant: q.Tenant()}
		if err := call(r.tr, tb.endpoint, opWrite, encodeCall(opWrite, hdr, wire)); err != nil {
			if !wrote && errors.Is(err, transport.ErrUnavailable) {
				// The server was unreachable before any tablet absorbed
				// entries: the whole batch is retriable.
				return fmt.Errorf("accumulo: tablet server %s: %w (%w)", tb.endpoint, ErrTransient, err)
			}
			return fmt.Errorf("accumulo: tablet write to %s: %w", tb.endpoint, err)
		}
		wrote = true
		r.tel.Count(q, telemetry.EntriesWritten, int64(len(batch)))
	}
	return nil
}

// groupByTablet routes a batch over n tablets tiling the key space in
// order (end(i) is tablet i's exclusive end row; the last is unbounded)
// and returns each tablet's entries in input order. An entry usually
// lands in the tablet of the one before it, so a sorted batch falls out
// as one aliased sub-slice of the input per tablet; only a batch that
// revisits a tablet copies.
func groupByTablet(entries []skv.Entry, n int, end func(int) string) [][]skv.Entry {
	groups := make([][]skv.Entry, n)
	cur, lo := 0, 0
	flush := func(hi int) {
		if groups[cur] == nil {
			// Capped, so a later append cannot write into the caller's batch.
			groups[cur] = entries[lo:hi:hi]
		} else {
			groups[cur] = append(groups[cur], entries[lo:hi]...)
		}
		lo = hi
	}
	for i := range entries {
		row := entries[i].K.Row
		if (cur == 0 || row >= end(cur-1)) && (cur == n-1 || row < end(cur)) {
			continue
		}
		flush(i)
		// A row equal to a split boundary belongs to the right-hand tablet.
		cur = sort.Search(n-1, func(j int) bool { return row < end(j) })
	}
	flush(len(entries))
	return groups
}
