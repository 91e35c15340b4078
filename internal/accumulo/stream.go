package accumulo

// This file implements the client half of the streaming scan pipeline:
// instead of materialising a scan's full result as one slice, the
// caller gets an EntryStream cursor fed by per-tablet fetch workers.
// Each worker opens one remote scan on the tablet's endpoint through
// the transport — the server runs the iterator stack where the tablet
// lives and streams back skv-codec batches — and a bounded pool
// (Config.ScanParallelism) lets workers for several tablets execute
// concurrently while the cursor serves tablets in key order. The
// stream stays globally sorted and the memory held by a scan is
// bounded by wire batches × parallelism, never by table size. This
// mirrors the paper's execution model: kernels run where the tablets
// live, in parallel across tablet servers, and the client consumes a
// trickle.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// traceCtx carries a scan's telemetry attribution through the backend:
// the query (or server-side pass) the work belongs to, and the span the
// opened scan should parent under (0 = the query's root). The zero
// value means untraced — every consumer is nil-safe.
type traceCtx struct {
	q      *telemetry.Query
	parent uint64
}

// EntryStream is a streaming cursor over one scan's sorted results.
// Next returns entries until the scan is exhausted or fails; Err reports
// the failure after Next returns false; Close releases the tablet
// workers early. A stream is single-consumer: Next, Err, and Close must
// not be called concurrently with each other. A fully drained stream
// needs no Close (its workers have already exited), and an abandoned
// stream is reclaimed at GC, but closing promptly frees worker
// goroutines and their buffered batches.
type EntryStream struct {
	scans []*tabletScan
	idx   int
	cur   []skv.Entry
	pos   int
	err   error

	done      chan struct{}
	closeOnce sync.Once
	stats     *telemetry.StatSet // the process block; holds the EntriesBuffered gauge

	// onDone fires once when the stream finishes — exhausted, failed, or
	// closed — ending the client-side scan span. Set (if at all) before
	// the consumer first calls Next.
	onDone   func()
	doneOnce sync.Once
}

// finished fires the stream's completion hook exactly once.
func (s *EntryStream) finished() {
	s.doneOnce.Do(func() {
		if s.onDone != nil {
			s.onDone()
		}
	})
}

// tabletScan carries one tablet worker's output: decoded wire batches,
// then a channel close. err is written before the close when the worker
// failed, so the consumer may read it after the receive fails.
type tabletScan struct {
	batches chan []skv.Entry
	err     error
}

// startStream builds the cursor and launches per-tablet fetch workers
// in tablet order under the parallelism bound; the cursor consumes
// tablets in the same order, so the stream is globally sorted while
// later tablets prefetch concurrently.
func startStream(stats *telemetry.StatSet, par, n int, fetch func(i int, out *tabletScan, done <-chan struct{})) *EntryStream {
	s := &EntryStream{
		scans: make([]*tabletScan, n),
		done:  make(chan struct{}),
		stats: stats,
	}
	for i := range s.scans {
		// Capacity 1: beyond the batch its worker is relaying, each tablet
		// holds at most one decoded batch in flight.
		s.scans[i] = &tabletScan{batches: make(chan []skv.Entry, 1)}
	}
	if par < 1 {
		par = 1
	}
	// The dispatcher and workers must not capture s itself, only its
	// channels, so an abandoned stream becomes unreachable and its
	// finalizer can release them.
	done, scans := s.done, s.scans
	go func() {
		sem := make(chan struct{}, par)
		for i := 0; i < n; i++ {
			select {
			case sem <- struct{}{}:
			case <-done:
				// Close the channels of workers that never started so a
				// draining consumer does not wait on them forever.
				for _, ts := range scans[i:] {
					close(ts.batches)
				}
				return
			}
			go func(i int) {
				defer func() { <-sem }()
				defer close(scans[i].batches)
				fetch(i, scans[i], done)
			}(i)
		}
	}()
	runtime.SetFinalizer(s, (*EntryStream).Close)
	return s
}

// relayScan is one per-tablet fetch worker: it opens the remote scan and
// relays decoded batches to the cursor channel with backpressure,
// honouring cancellation from the consumer side (done) and failure from
// the server side (Recv errors), which it returns. Wire traffic is
// counted into both the process registry and the query q (nil =
// untraced); a telemetry trailer frame — the stream's final payload — is
// handed to onTrailer (nil = dropped).
func relayScan(tr transport.Transport, tel *telemetry.Registry, q *telemetry.Query, endpoint string, req []byte, batches chan<- []skv.Entry, done <-chan struct{}, onTrailer func(*telemetry.Trailer) error) error {
	conn, err := tr.Dial(endpoint)
	if err != nil {
		return err
	}
	st, err := conn.OpenStream(opScan, req)
	if err != nil {
		return err
	}
	// A worker blocked in Recv cannot watch done itself; a sentinel
	// closes the stream on cancellation, which unblocks Recv.
	fin := make(chan struct{})
	defer close(fin)
	go func() {
		select {
		case <-done:
			st.Close()
		case <-fin:
		}
	}()
	defer st.Close()
	for {
		payload, err := st.Recv()
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, transport.ErrClosed) {
			return nil // cancelled by the consumer via done
		}
		if err != nil {
			return remoteErr(err)
		}
		tel.Count(q, telemetry.WireBytes, int64(len(payload)))
		if len(payload) == 0 {
			return fmt.Errorf("accumulo: wire corruption: empty scan frame")
		}
		// Every scan frame leads with a kind byte: entry batches make up
		// the stream, a telemetry trailer ends it. Trailer frames are not
		// RPC-counted — they ride the stream the entries already paid for.
		kind, body := payload[0], payload[1:]
		switch kind {
		case frameTrailer:
			t, err := telemetry.DecodeTrailer(body)
			if err != nil {
				return fmt.Errorf("accumulo: wire corruption: %w", err)
			}
			if onTrailer != nil {
				// A trailer-fold failure (budget exhaustion) is the relay's
				// failure: the pass's volume is charged where it is counted.
				if err := onTrailer(&t); err != nil {
					return err
				}
			}
			continue
		case frameEntries:
		default:
			return fmt.Errorf("accumulo: wire corruption: unknown scan frame kind %d", kind)
		}
		tel.Count(q, telemetry.RPCs, 1)
		batch, err := skv.DecodeBatch(body)
		if err != nil {
			return fmt.Errorf("accumulo: wire corruption: %w", err)
		}
		tel.Stats.Add(telemetry.EntriesBuffered, int64(len(batch)))
		select {
		case batches <- batch:
			// Only batches the consumer can still receive count as
			// returned to the scan client — and only counted batches
			// charge the query's scan budget.
			tel.Count(q, telemetry.EntriesScanned, int64(len(batch)))
			if err := q.ChargeScanEntries(int64(len(batch))); err != nil {
				return err
			}
		case <-done:
			tel.Stats.Add(telemetry.EntriesBuffered, -int64(len(batch)))
			return nil
		}
	}
}

// Next returns the next entry in key order, or ok=false when the stream
// is exhausted, failed (see Err), or closed.
func (s *EntryStream) Next() (skv.Entry, bool) {
	for s.err == nil {
		if s.pos < len(s.cur) {
			e := s.cur[s.pos]
			s.pos++
			return e, true
		}
		s.stats.Add(telemetry.EntriesBuffered, -int64(len(s.cur)))
		s.cur, s.pos = nil, 0
		if s.idx >= len(s.scans) {
			break
		}
		ts := s.scans[s.idx]
		batch, ok := <-ts.batches
		if !ok {
			if ts.err != nil {
				s.err = ts.err
				break
			}
			s.idx++
			continue
		}
		s.cur = batch
	}
	s.finished()
	return skv.Entry{}, false
}

// Err reports the first scan failure; valid once Next has returned
// false.
func (s *EntryStream) Err() error { return s.err }

// Close releases the stream's tablet workers. It is idempotent and safe
// at any point, including after a full drain.
func (s *EntryStream) Close() {
	s.closeOnce.Do(func() {
		runtime.SetFinalizer(s, nil)
		close(s.done)
		// Drain so blocked workers observe the close or complete their
		// final send, and the buffered-entries gauge drops batches that
		// never reached the consumer.
		for _, ts := range s.scans {
			for batch := range ts.batches {
				s.stats.Add(telemetry.EntriesBuffered, -int64(len(batch)))
			}
		}
		s.stats.Add(telemetry.EntriesBuffered, -int64(len(s.cur)))
		s.cur = nil
		s.finished()
	})
}

// Collect drains the stream into a slice and closes it — the
// materialising convenience the streaming callers fall back to.
func (s *EntryStream) Collect() ([]skv.Entry, error) {
	defer s.Close()
	var out []skv.Entry
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		out = append(out, e)
	}
	return out, s.Err()
}

// --- server-side iterator environment ---

// scanEnv implements iterator.Env for server-side iterators: scanners
// opened from inside a tablet server still route through the transport,
// because in Accumulo a RemoteSourceIterator is an ordinary client of
// the remote tablet server. The env records every remote stream its
// iterators open so the tablet pass can release them when it completes —
// a TwoTableIterator abandons the remote side mid-stream when the
// hosted side runs dry.
type scanEnv struct {
	r *router
	// tc attributes the env's work — nested scans, RemoteWrite flushes,
	// iterator counters — to the tablet pass (or compaction) it serves.
	tc     traceCtx
	opened []*EntryStream
}

// openStream opens a nested scan attributed to this env's pass.
func (e *scanEnv) openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting) (*EntryStream, error) {
	return e.r.openStream(table, ranges, families, extra, e.tc)
}

// OpenScanner implements iterator.Env. The returned SKVI is streaming:
// it holds wire batches, not the remote table, and is positioned at the
// first entry of rng (callers may iterate without an initial Seek). The
// underlying stream is opened with rng's bounds pushed down — tablets
// (and, durably, rfiles) outside them are pruned — and a later Seek
// whose range escapes the opened bounds re-issues the remote scan;
// kernels clip their re-seeks to the first range, so a tablet pass
// still costs exactly one remote scan.
func (e *scanEnv) OpenScanner(table string, rng skv.Range) (iterator.SKVI, error) {
	return e.OpenScannerFamilies(table, rng, nil)
}

// OpenScannerFamilies implements iterator.FamilyEnv: the nested scan is
// opened with the column-family constraint pushed down to the remote
// table's locality groups. The request's own family constraint is never
// auto-forwarded here — nested scans read *other* tables (a multiply's
// remote operand, a degree table) whose family bands differ from the
// hosted table's — so each iterator pushes the band it knows applies.
func (e *scanEnv) OpenScannerFamilies(table string, rng skv.Range, families []string) (iterator.SKVI, error) {
	it := &streamIter{env: e, table: table, families: families}
	if err := it.reopen(rng); err != nil {
		return nil, err
	}
	return it, nil
}

// WriteEntries implements iterator.Env. Each flush is timed into the
// pass's write-batch histogram and recorded as a span, so RemoteWrite
// batches leaving a tablet pass are visible in the query's trace.
func (e *scanEnv) WriteEntries(table string, entries []skv.Entry) error {
	span := e.tc.q.StartSpan(e.tc.parent, "flush "+table)
	start := time.Now()
	err := e.r.write(table, entries, e.tc.q)
	e.tc.q.ObserveWriteBatch(time.Since(start))
	span.End()
	return err
}

// CountRangePruned implements iterator.Counters: entries a server-side
// range filter dropped.
func (e *scanEnv) CountRangePruned(n int) {
	e.r.tel.Count(e.tc.q, telemetry.EntriesPrunedByRange, int64(n))
}

// CountFolded implements iterator.Counters: partial products absorbed
// by the fold stage.
func (e *scanEnv) CountFolded(n int) {
	e.r.tel.Count(e.tc.q, telemetry.PartialProductsFolded, int64(n))
}

// close releases every remote stream this env's iterators opened.
func (e *scanEnv) close() {
	for _, s := range e.opened {
		s.Close()
	}
	e.opened = nil
}

// streamIter adapts an EntryStream to the SKVI contract for server-side
// remote reads. Forward seeks within the opened range — starting at or
// past the current position — are served by skipping within the open
// stream, so a tablet pass issues exactly one remote scan no matter how
// often the kernel re-seeks (Graphulo's streaming RemoteSourceIterator
// contract). Only a seek that demonstrably needs entries the stream
// cannot produce — already consumed, before the opened start, or past
// the opened end — re-issues the remote scan. The opened range's end is
// pushed down to the remote side so its tablet and rfile pruning apply;
// kernels (TwoTableIterator) clip their re-seeks to the range they
// opened with, keeping the one-scan-per-pass property.
type streamIter struct {
	env      *scanEnv
	table    string
	families []string // column-family constraint pushed down on every (re)open
	stream   *EntryStream
	open     skv.Range // range the stream was opened with (both bounds pushed)
	rng      skv.Range
	cur      skv.Entry
	has      bool
	moved    bool // entries before cur have been consumed since (re)open
}

// reopen issues a fresh remote scan over rng — both bounds pushed down
// — and positions the iterator at its first entry.
func (it *streamIter) reopen(rng skv.Range) error {
	if it.stream != nil {
		it.stream.Close()
	}
	s, err := it.env.openStream(it.table, []skv.Range{rng}, it.families, nil)
	if err != nil {
		return err
	}
	it.env.opened = append(it.env.opened, s)
	it.stream = s
	it.open = rng
	it.rng = rng
	it.moved = false
	it.cur, it.has = s.Next()
	if !it.has {
		return s.Err()
	}
	return nil
}

// Seek implements SKVI.
func (it *streamIter) Seek(rng skv.Range) error {
	// The stream can serve rng in place unless it needs entries the
	// stream cannot produce: entries before the opened start or past the
	// opened end (never fetched), or — once the cursor has moved —
	// entries before the current one (consumed), including the tail of
	// an exhausted stream.
	needEarlier := it.open.HasStart &&
		(!rng.HasStart || skv.Compare(rng.Start, it.open.Start) < 0)
	needLater := it.open.HasEnd &&
		(!rng.HasEnd || skv.Compare(rng.End, it.open.End) > 0)
	consumed := it.moved &&
		(!rng.HasStart || !it.has || skv.Compare(rng.Start, it.cur.K) < 0)
	if it.stream == nil || needEarlier || needLater || consumed {
		if err := it.reopen(rng); err != nil {
			return err
		}
	}
	it.rng = rng
	for it.has && rng.BeforeStart(it.cur.K) {
		if err := it.advance(); err != nil {
			return err
		}
	}
	return nil
}

func (it *streamIter) advance() error {
	it.moved = true
	it.cur, it.has = it.stream.Next()
	if !it.has {
		return it.stream.Err()
	}
	return nil
}

// HasTop implements SKVI.
func (it *streamIter) HasTop() bool { return it.has && !it.rng.AfterEnd(it.cur.K) }

// Top implements SKVI.
func (it *streamIter) Top() skv.Entry { return it.cur }

// Next implements SKVI.
func (it *streamIter) Next() error { return it.advance() }
