package telemetry

// Trailer wire codec. A Trailer is the last frame of a tablet server's
// scan response stream: the pass's counters, latency histograms, and
// spans, shipped back so the coordinator can attribute server-side work
// to the originating query — and, with external daemons, keep the
// cluster-global counters accurate at all. Decoding follows the wire
// convention of the accumulo codec: counts are checked against the
// remaining payload so hostile or truncated frames fail with an error,
// never a panic or an absurd allocation.

import (
	"encoding/binary"
	"fmt"
	"time"
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
// shared_scan_folds counter, renumbering every counter after it.
const trailerVersion = 2

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
		dst = appendWireStr(dst, s.Name)
		dst = appendWireStr(dst, s.Host)
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
	src = src[1:]
	// Counter pairs need at least 2 bytes each.
	n, src, err := readWireCount(src, 2)
	if err != nil {
		return t, err
	}
	for i := 0; i < n; i++ {
		var idx, val uint64
		if idx, src, err = readWireUvarint(src); err != nil {
			return t, err
		}
		if val, src, err = readWireUvarint(src); err != nil {
			return t, err
		}
		if idx >= uint64(NumCounters) {
			return t, fmt.Errorf("telemetry: counter index %d out of range", idx)
		}
		// A non-counter index is a peer's mistake, not corruption: drop the
		// value so it is folded into no block.
		if descs[idx].kind == kindCounter {
			t.Counts[idx] = int64(val)
		}
	}
	if t.ScanPass, src, err = readHist(src); err != nil {
		return t, err
	}
	if t.WriteBatch, src, err = readHist(src); err != nil {
		return t, err
	}
	// A span is at least: id, parent, two string prefixes, start,
	// duration, done — 7 bytes.
	nSpans, src, err := readWireCount(src, 7)
	if err != nil {
		return t, err
	}
	for i := 0; i < nSpans; i++ {
		var s SpanSnapshot
		if s.ID, src, err = readWireUvarint(src); err != nil {
			return t, err
		}
		if s.Parent, src, err = readWireUvarint(src); err != nil {
			return t, err
		}
		if s.Name, src, err = readWireStr(src); err != nil {
			return t, err
		}
		if s.Host, src, err = readWireStr(src); err != nil {
			return t, err
		}
		var start, dur uint64
		if start, src, err = readWireUvarint(src); err != nil {
			return t, err
		}
		if dur, src, err = readWireUvarint(src); err != nil {
			return t, err
		}
		if len(src) < 1 {
			return t, fmt.Errorf("telemetry: truncated span flags")
		}
		s.Start = time.Unix(0, int64(start))
		s.Duration = time.Duration(dur)
		s.Done = src[0] != 0
		src = src[1:]
		t.Spans = append(t.Spans, s)
	}
	if len(src) != 0 {
		return t, fmt.Errorf("telemetry: %d trailing bytes after trailer", len(src))
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

func readHist(src []byte) (HistogramSnapshot, []byte, error) {
	var h HistogramSnapshot
	var v uint64
	var err error
	if v, src, err = readWireUvarint(src); err != nil {
		return h, nil, err
	}
	h.Count = int64(v)
	if v, src, err = readWireUvarint(src); err != nil {
		return h, nil, err
	}
	h.SumNanos = int64(v)
	n, src, err := readWireCount(src, 2)
	if err != nil {
		return h, nil, err
	}
	for i := 0; i < n; i++ {
		var idx, cnt uint64
		if idx, src, err = readWireUvarint(src); err != nil {
			return h, nil, err
		}
		if cnt, src, err = readWireUvarint(src); err != nil {
			return h, nil, err
		}
		if idx >= NumBuckets {
			return h, nil, fmt.Errorf("telemetry: histogram bucket %d out of range", idx)
		}
		h.Buckets[idx] = int64(cnt)
	}
	return h, src, nil
}

// --- wire primitives (uvarint-prefixed, cap-checked) ---

func appendWireStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readWireStr(src []byte) (string, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", nil, fmt.Errorf("telemetry: truncated length prefix")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return "", nil, fmt.Errorf("telemetry: truncated string payload")
	}
	return string(src[:n]), src[n:], nil
}

func readWireUvarint(src []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, nil, fmt.Errorf("telemetry: truncated uvarint")
	}
	return v, src[k:], nil
}

// readWireCount reads an item count, rejecting counts the remaining
// payload cannot hold (each item needs at least minBytes) — the same
// hostile-frame guard the accumulo codec applies.
func readWireCount(src []byte, minBytes int) (int, []byte, error) {
	v, rest, err := readWireUvarint(src)
	if err != nil {
		return 0, nil, err
	}
	if v > uint64(len(rest)/minBytes) {
		return 0, nil, fmt.Errorf("telemetry: count %d exceeds remaining payload (%d bytes)", v, len(rest))
	}
	return int(v), rest, nil
}
