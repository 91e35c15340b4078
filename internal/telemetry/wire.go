package telemetry

// Trailer wire codec. A Trailer is the last frame of a tablet server's
// scan response stream: the pass's counters, latency histograms, and
// spans, shipped back so the coordinator can attribute server-side work
// to the originating query — and, with external daemons, keep the
// cluster-global counters accurate at all. Decoding goes through skv's
// wire Decoder: counts are checked against the remaining payload so
// hostile or truncated frames fail with an error, never a panic or an
// absurd allocation.

import (
	"encoding/binary"
	"fmt"
	"time"

	"graphulo/internal/skv"
)

// Trailer carries one pass's accumulated telemetry (nested passes
// already folded in).
type Trailer struct {
	Counts     Counts
	ScanPass   HistogramSnapshot
	WriteBatch HistogramSnapshot
	Spans      []SpanSnapshot
}

// trailerVersion guards the trailer layout. Version 2 dropped the
// shared_scan_folds counter and version 3 the compaction-kick counter,
// each renumbering every counter after it.
const trailerVersion = 3

// AppendTrailer encodes t onto dst.
func AppendTrailer(dst []byte, t Trailer) []byte {
	dst = append(dst, trailerVersion)
	// Counters: sparse (index, value) pairs. Only totals travel: a gauge
	// or high-water mark describes the process it was read in.
	ships := func(c int, v int64) bool { return v != 0 && descs[c].kind == kindCounter }
	n := 0
	for c, v := range t.Counts {
		if ships(c, v) {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for c, v := range t.Counts {
		if ships(c, v) {
			dst = binary.AppendUvarint(dst, uint64(c))
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	dst = appendHist(dst, t.ScanPass)
	dst = appendHist(dst, t.WriteBatch)
	dst = binary.AppendUvarint(dst, uint64(len(t.Spans)))
	for _, s := range t.Spans {
		dst = binary.AppendUvarint(dst, s.ID)
		dst = binary.AppendUvarint(dst, s.Parent)
		dst = skv.AppendString(dst, s.Name)
		dst = skv.AppendString(dst, s.Host)
		dst = binary.AppendUvarint(dst, uint64(s.Start.UnixNano()))
		dst = binary.AppendUvarint(dst, uint64(s.Duration))
		done := byte(0)
		if s.Done {
			done = 1
		}
		dst = append(dst, done)
	}
	return dst
}

// DecodeTrailer decodes an encoded trailer, rejecting truncated or
// hostile payloads with an error.
func DecodeTrailer(src []byte) (Trailer, error) {
	var t Trailer
	if len(src) < 1 {
		return t, fmt.Errorf("telemetry: empty trailer")
	}
	if src[0] != trailerVersion {
		return t, fmt.Errorf("telemetry: unknown trailer version %d", src[0])
	}
	d := skv.NewDecoder(src[1:])
	// Counter pairs need at least 2 bytes each.
	for i, n := 0, d.Count(2); i < n; i++ {
		idx, val := d.Uvarint(), d.Uvarint()
		if idx >= uint64(NumCounters) {
			d.Fail(fmt.Errorf("telemetry: counter index %d out of range", idx))
			break
		}
		// A non-counter index is a peer's mistake, not corruption: drop the
		// value so it is folded into no block.
		if descs[idx].kind == kindCounter {
			t.Counts[idx] = int64(val)
		}
	}
	t.ScanPass = readHist(&d)
	t.WriteBatch = readHist(&d)
	// A span is at least: id, parent, two string prefixes, start,
	// duration, done — 7 bytes.
	for i, n := 0, d.Count(7); i < n; i++ {
		var s SpanSnapshot
		s.ID = d.Uvarint()
		s.Parent = d.Uvarint()
		s.Name = d.Str()
		s.Host = d.Str()
		s.Start = time.Unix(0, int64(d.Uvarint()))
		s.Duration = time.Duration(d.Uvarint())
		s.Done = d.Byte() != 0
		t.Spans = append(t.Spans, s)
	}
	if err := d.Done(); err != nil {
		return Trailer{}, fmt.Errorf("telemetry: trailer: %w", err)
	}
	return t, nil
}

func appendHist(dst []byte, h HistogramSnapshot) []byte {
	dst = binary.AppendUvarint(dst, uint64(h.Count))
	dst = binary.AppendUvarint(dst, uint64(h.SumNanos))
	n := 0
	for _, v := range h.Buckets {
		if v != 0 {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for i, v := range h.Buckets {
		if v != 0 {
			dst = binary.AppendUvarint(dst, uint64(i))
			dst = binary.AppendUvarint(dst, uint64(v))
		}
	}
	return dst
}

func readHist(d *skv.Decoder) HistogramSnapshot {
	var h HistogramSnapshot
	h.Count = int64(d.Uvarint())
	h.SumNanos = int64(d.Uvarint())
	for i, n := 0, d.Count(2); i < n; i++ {
		idx, cnt := d.Uvarint(), d.Uvarint()
		if idx >= NumBuckets {
			d.Fail(fmt.Errorf("telemetry: histogram bucket %d out of range", idx))
			break
		}
		h.Buckets[idx] = int64(cnt)
	}
	return h
}
