package accumulo

// This file defines the cluster's RPC surface over the transport
// package: the op codes tablet servers serve and the request codecs for
// them. Entry batches themselves stay in the skv wire codec — requests
// embed EncodeBatch payloads opaquely — so the serialisation cost the
// simulated cluster has always charged is exactly what crosses a real
// socket. The framing underneath is specified in internal/transport
// and docs/ARCHITECTURE.md.

import (
	"encoding/binary"
	"fmt"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// Tablet-server ops, all served by the one TabletServer handler. A
// coordinator of launched servers hosts tablets by pointer and never
// sends opAssign/opDrop; they are the minimal control plane a standalone
// server (cmd/graphulo serve) is driven by.
const (
	// opPing checks that the server is reachable; empty request and
	// response.
	opPing byte = iota + 1
	// opWrite ingests one entry batch into one tablet. The hosting server
	// stamps the entries from its clock on arrival, whatever timestamps
	// the batch carried.
	opWrite
	// opScan streams one tablet's scan results: the request carries the
	// fully merged iterator stack and the routing topology, the response
	// is a stream of skv batch payloads.
	opScan
	// opAssign hosts a fresh empty in-memory tablet.
	opAssign
	// opDrop releases every hosted tablet of a table.
	opDrop
)

// Scan-stream frame kinds. Every opScan response payload leads with a
// kind byte: entry batches make up the stream; a single telemetry
// trailer — the pass's counters, histograms, and spans — ends it.
const (
	frameEntries byte = 0 // skv.EncodeBatch payload
	frameTrailer byte = 1 // telemetry.AppendTrailer payload
)

// --- primitives (uvarint-prefixed strings, mirroring the skv codec) ---

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readStr(src []byte) (string, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", nil, fmt.Errorf("accumulo: truncated length prefix")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return "", nil, fmt.Errorf("accumulo: truncated string payload")
	}
	return string(src[:n]), src[n:], nil
}

// appendStrList encodes a counted string list (nil and empty encode
// identically, as a zero count).
func appendStrList(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendStr(dst, s)
	}
	return dst
}

func readStrList(src []byte) ([]string, []byte, error) {
	n, src, err := readCount(src, 1)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, src, nil
	}
	out := make([]string, n)
	for i := range out {
		if out[i], src, err = readStr(src); err != nil {
			return nil, nil, err
		}
	}
	return out, src, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBytes(src []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("accumulo: truncated length prefix")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, nil, fmt.Errorf("accumulo: truncated bytes payload")
	}
	return src[:n], src[n:], nil
}

func appendUint(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

func readUint(src []byte) (int, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, nil, fmt.Errorf("accumulo: truncated uvarint")
	}
	return int(n), src[k:], nil
}

// readUint64 reads a full-width uvarint — trace and span IDs use the
// whole 64-bit space, so they cannot go through readUint's int cast.
func readUint64(src []byte) (uint64, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return 0, nil, fmt.Errorf("accumulo: truncated uvarint")
	}
	return n, src[k:], nil
}

// readCount reads an item count and rejects counts that the remaining
// payload cannot possibly hold (each item needs at least minBytes), so
// a corrupt or hostile frame fails with an error instead of a
// make()-panic-sized allocation.
func readCount(src []byte, minBytes int) (int, []byte, error) {
	n, rest, err := readUint(src)
	if err != nil {
		return 0, nil, err
	}
	if n < 0 || n > len(rest)/minBytes {
		return 0, nil, fmt.Errorf("accumulo: count %d exceeds remaining payload (%d bytes)", n, len(rest))
	}
	return n, rest, nil
}

func appendKey(dst []byte, key skv.Key) []byte {
	dst = appendStr(dst, key.Row)
	dst = appendStr(dst, key.ColF)
	dst = appendStr(dst, key.ColQ)
	return binary.AppendVarint(dst, key.Ts)
}

func readKey(src []byte) (skv.Key, []byte, error) {
	var key skv.Key
	var err error
	if key.Row, src, err = readStr(src); err != nil {
		return key, nil, err
	}
	if key.ColF, src, err = readStr(src); err != nil {
		return key, nil, err
	}
	if key.ColQ, src, err = readStr(src); err != nil {
		return key, nil, err
	}
	ts, k := binary.Varint(src)
	if k <= 0 {
		return key, nil, fmt.Errorf("accumulo: truncated key timestamp")
	}
	key.Ts = ts
	return key, src[k:], nil
}

func appendRange(dst []byte, rng skv.Range) []byte {
	var flags byte
	if rng.HasStart {
		flags |= 1
	}
	if rng.HasEnd {
		flags |= 2
	}
	dst = append(dst, flags)
	if rng.HasStart {
		dst = appendKey(dst, rng.Start)
	}
	if rng.HasEnd {
		dst = appendKey(dst, rng.End)
	}
	return dst
}

func readRange(src []byte) (skv.Range, []byte, error) {
	var rng skv.Range
	if len(src) < 1 {
		return rng, nil, fmt.Errorf("accumulo: truncated range flags")
	}
	flags := src[0]
	src = src[1:]
	var err error
	if flags&1 != 0 {
		rng.HasStart = true
		if rng.Start, src, err = readKey(src); err != nil {
			return rng, nil, err
		}
	}
	if flags&2 != 0 {
		rng.HasEnd = true
		if rng.End, src, err = readKey(src); err != nil {
			return rng, nil, err
		}
	}
	return rng, src, nil
}

// appendRanges encodes a count-prefixed range list — the scan request's
// constrained-range set (empty means the full range).
func appendRanges(dst []byte, ranges []skv.Range) []byte {
	dst = appendUint(dst, len(ranges))
	for _, r := range ranges {
		dst = appendRange(dst, r)
	}
	return dst
}

func readRanges(src []byte) ([]skv.Range, []byte, error) {
	// A range is at least its flags byte.
	n, src, err := readCount(src, 1)
	if err != nil {
		return nil, nil, err
	}
	var ranges []skv.Range
	for i := 0; i < n; i++ {
		var r skv.Range
		if r, src, err = readRange(src); err != nil {
			return nil, nil, err
		}
		ranges = append(ranges, r)
	}
	return ranges, src, nil
}

func appendSettings(dst []byte, settings []iterator.Setting) []byte {
	dst = appendUint(dst, len(settings))
	for _, s := range settings {
		dst = appendStr(dst, s.Name)
		dst = appendUint(dst, s.Priority)
		dst = appendUint(dst, len(s.Opts))
		for k, v := range s.Opts {
			dst = appendStr(dst, k)
			dst = appendStr(dst, v)
		}
	}
	return dst
}

func readSettings(src []byte) ([]iterator.Setting, []byte, error) {
	// A setting is at least name prefix + priority + opts count.
	n, src, err := readCount(src, 3)
	if err != nil {
		return nil, nil, err
	}
	settings := make([]iterator.Setting, 0, n)
	for i := 0; i < n; i++ {
		var s iterator.Setting
		if s.Name, src, err = readStr(src); err != nil {
			return nil, nil, err
		}
		if s.Priority, src, err = readUint(src); err != nil {
			return nil, nil, err
		}
		var nOpts int
		if nOpts, src, err = readCount(src, 2); err != nil {
			return nil, nil, err
		}
		if nOpts > 0 {
			s.Opts = make(map[string]string, nOpts)
		}
		for j := 0; j < nOpts; j++ {
			var k, v string
			if k, src, err = readStr(src); err != nil {
				return nil, nil, err
			}
			if v, src, err = readStr(src); err != nil {
				return nil, nil, err
			}
			s.Opts[k] = v
		}
		settings = append(settings, s)
	}
	return settings, src, nil
}

// --- topology ---

// topology is the routing snapshot the coordinator takes of its metadata
// and every scan request carries. It drives the router on both sides:
// the coordinator fans client scans and writes out by it, and it makes a
// server self-sufficient for server-side iterator traffic — a
// RemoteSource or TwoTableIterator running inside the scan routes its
// operand scans, and a RemoteWriteIterator its result batches, to the
// right peer endpoints using only the request, no shared metadata
// service.
type topology struct {
	wireBatch int
	scanPar   int
	tables    []topoTable
}

type topoTable struct {
	name    string
	scan    []iterator.Setting // the table's scan-scope stack
	tablets []topoTablet       // in tablet (key) order
}

type topoTablet struct {
	start, end string // hosted row range [start, end); "" = unbounded
	endpoint   string // dialable transport address of the hosting server
}

// find returns the table's routing entry, or nil.
func (t *topology) find(table string) *topoTable {
	if t == nil {
		return nil
	}
	for i := range t.tables {
		if t.tables[i].name == table {
			return &t.tables[i]
		}
	}
	return nil
}

func appendTopology(dst []byte, t *topology) []byte {
	if t == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = appendUint(dst, t.wireBatch)
	dst = appendUint(dst, t.scanPar)
	dst = appendUint(dst, len(t.tables))
	for _, tt := range t.tables {
		dst = appendStr(dst, tt.name)
		dst = appendSettings(dst, tt.scan)
		dst = appendUint(dst, len(tt.tablets))
		for _, tb := range tt.tablets {
			dst = appendStr(dst, tb.start)
			dst = appendStr(dst, tb.end)
			dst = appendStr(dst, tb.endpoint)
		}
	}
	return dst
}

func readTopology(src []byte) (*topology, []byte, error) {
	if len(src) < 1 {
		return nil, nil, fmt.Errorf("accumulo: truncated topology flag")
	}
	present := src[0]
	src = src[1:]
	if present == 0 {
		return nil, src, nil
	}
	t := &topology{}
	var err error
	if t.wireBatch, src, err = readUint(src); err != nil {
		return nil, nil, err
	}
	if t.scanPar, src, err = readUint(src); err != nil {
		return nil, nil, err
	}
	var nTables int
	// A table is at least a name prefix + settings count + tablet count.
	if nTables, src, err = readCount(src, 3); err != nil {
		return nil, nil, err
	}
	for i := 0; i < nTables; i++ {
		var tt topoTable
		if tt.name, src, err = readStr(src); err != nil {
			return nil, nil, err
		}
		if tt.scan, src, err = readSettings(src); err != nil {
			return nil, nil, err
		}
		var nTablets int
		// A tablet entry is at least three string prefixes.
		if nTablets, src, err = readCount(src, 3); err != nil {
			return nil, nil, err
		}
		for j := 0; j < nTablets; j++ {
			var tb topoTablet
			if tb.start, src, err = readStr(src); err != nil {
				return nil, nil, err
			}
			if tb.end, src, err = readStr(src); err != nil {
				return nil, nil, err
			}
			if tb.endpoint, src, err = readStr(src); err != nil {
				return nil, nil, err
			}
			tt.tablets = append(tt.tablets, tb)
		}
		t.tables = append(t.tables, tt)
	}
	return t, src, nil
}

// --- requests ---

// writeReq routes one entry batch to one tablet. The batch stays in its
// skv.EncodeBatch form.
type writeReq struct {
	table      string
	start, end string // tablet identity: its hosted row range
	batch      []byte // skv.EncodeBatch payload
	// traceID attributes the write to the originating kernel query
	// (0 = untraced), so a receiving daemon can label the work.
	traceID uint64
	// tenant is the originating query's tenant label ("" = default),
	// wired directly after the trace id for scheduler accounting on the
	// serving side.
	tenant string
}

func encodeWriteReq(r writeReq) []byte {
	dst := appendStr(nil, r.table)
	dst = appendStr(dst, r.start)
	dst = appendStr(dst, r.end)
	dst = appendBytes(dst, r.batch)
	dst = binary.AppendUvarint(dst, r.traceID)
	return appendStr(dst, r.tenant)
}

func decodeWriteReq(src []byte) (writeReq, error) {
	var r writeReq
	var err error
	if r.table, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.start, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.end, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.batch, src, err = readBytes(src); err != nil {
		return r, err
	}
	if r.traceID, src, err = readUint64(src); err != nil {
		return r, err
	}
	if r.tenant, src, err = readStr(src); err != nil {
		return r, err
	}
	if len(src) != 0 {
		return r, fmt.Errorf("accumulo: %d trailing bytes after write request", len(src))
	}
	return r, nil
}

// scanReq opens one tablet's scan: the already-clipped, sorted range
// list (SpRef push-down; empty = the full tablet), the fully merged
// iterator stack (table scan scope + per-scan extras — merged
// router-side so servers need no table metadata), the batch size for the
// response stream, and the routing topology.
type scanReq struct {
	table      string
	start, end string // tablet identity
	ranges     []skv.Range
	settings   []iterator.Setting
	batch      int
	// traceID/spanID tie the scan to the originating kernel query: the
	// serving process attaches its pass spans under spanID within trace
	// traceID, and ships them back in the stream's telemetry trailer.
	// Both 0 for untraced scans.
	traceID uint64
	spanID  uint64
	// tenant is the originating query's tenant label ("" = default);
	// the serving side tags its pass telemetry with it.
	tenant string
	// families constrains the scan to a column-family set (empty =
	// unconstrained); the serving tablet scopes its snapshot to the
	// matching locality groups, skipping other families' block runs.
	families []string
	topo     *topology
	// topoRaw is the topology in encoded form (presence flag included).
	// Encoders set it to splice an already-encoded topology — built once
	// per scan, reused across its per-tablet requests and passed through
	// nested kernel scans — instead of re-encoding topo; decodeScanReq
	// fills both views.
	topoRaw []byte
}

func encodeScanReq(r scanReq) []byte {
	dst := appendStr(nil, r.table)
	dst = appendStr(dst, r.start)
	dst = appendStr(dst, r.end)
	dst = appendRanges(dst, r.ranges)
	dst = appendSettings(dst, r.settings)
	dst = appendUint(dst, r.batch)
	dst = binary.AppendUvarint(dst, r.traceID)
	dst = binary.AppendUvarint(dst, r.spanID)
	dst = appendStr(dst, r.tenant)
	dst = appendStrList(dst, r.families)
	if r.topoRaw != nil {
		return append(dst, r.topoRaw...)
	}
	return appendTopology(dst, r.topo)
}

func decodeScanReq(src []byte) (scanReq, error) {
	var r scanReq
	var err error
	if r.table, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.start, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.end, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.ranges, src, err = readRanges(src); err != nil {
		return r, err
	}
	if r.settings, src, err = readSettings(src); err != nil {
		return r, err
	}
	if r.batch, src, err = readUint(src); err != nil {
		return r, err
	}
	if r.traceID, src, err = readUint64(src); err != nil {
		return r, err
	}
	if r.spanID, src, err = readUint64(src); err != nil {
		return r, err
	}
	if r.tenant, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.families, src, err = readStrList(src); err != nil {
		return r, err
	}
	// The topology is the final field, so the remaining bytes are its
	// raw form — kept for zero-cost pass-through into nested requests.
	r.topoRaw = src
	if r.topo, src, err = readTopology(src); err != nil {
		return r, err
	}
	if len(src) != 0 {
		return r, fmt.Errorf("accumulo: %d trailing bytes after scan request", len(src))
	}
	return r, nil
}

// assignReq hosts a fresh empty tablet on a tablet server.
type assignReq struct {
	table      string
	start, end string
}

func encodeAssignReq(r assignReq) []byte {
	dst := appendStr(nil, r.table)
	dst = appendStr(dst, r.start)
	return appendStr(dst, r.end)
}

func decodeAssignReq(src []byte) (assignReq, error) {
	var r assignReq
	var err error
	if r.table, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.start, src, err = readStr(src); err != nil {
		return r, err
	}
	if r.end, src, err = readStr(src); err != nil {
		return r, err
	}
	if len(src) != 0 {
		return r, fmt.Errorf("accumulo: %d trailing bytes after assign request", len(src))
	}
	return r, nil
}
