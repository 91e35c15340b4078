package accumulo

// This file defines the cluster's RPC surface over the transport
// package: the op codes tablet servers serve and the request codecs for
// them. Every request leads with one versioned header (reqHeader); only
// opWrite and opScan add an op-specific tail. Entry batches themselves
// stay in the skv wire codec — requests embed EncodeBatch payloads
// opaquely — so the serialisation cost the simulated cluster has always
// charged is exactly what crosses a real socket, and every field is
// read through skv's one Decoder. The framing underneath is specified in
// internal/transport and docs/ARCHITECTURE.md.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/transport"
)

// Tablet-server ops, all served by the one TabletServer handler. A
// coordinator of launched servers hosts tablets by pointer and never
// sends opAssign/opDrop; they are the minimal control plane a standalone
// server (cmd/graphulo serve) is driven by.
const (
	// opPing checks that the server is reachable and speaks this wire
	// version; the request is the header alone, the response empty.
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

// --- request header ---

// wireVersion is the byte every request leads with. A server refuses any
// other version, so a coordinator and a standalone server built with
// different request layouts fail at the coordinator's first ping.
const wireVersion byte = 1

// ErrWireVersion is the failure of a request whose header names a wire
// version the serving tablet server does not speak.
var ErrWireVersion = errors.New("accumulo: unsupported wire version")

// reqHeader is the header every tablet-server request starts with, after
// the wireVersion byte. Each op reads the fields it needs (the request
// header table in docs/ARCHITECTURE.md, "Wire protocol").
type reqHeader struct {
	table      string
	start, end string // tablet identity: its hosted row range
	// trace/span tie the request to the originating kernel query (0 =
	// untraced): a serving process attaches its pass spans under span
	// within trace and ships them back in the stream's telemetry trailer.
	trace, span uint64
	// tenant is the originating query's tenant label ("" = default).
	tenant string
}

func appendHeader(dst []byte, h reqHeader) []byte {
	dst = append(dst, wireVersion)
	dst = skv.AppendString(dst, h.table)
	dst = skv.AppendString(dst, h.start)
	dst = skv.AppendString(dst, h.end)
	dst = binary.AppendUvarint(dst, h.trace)
	dst = binary.AppendUvarint(dst, h.span)
	return skv.AppendString(dst, h.tenant)
}

func readHeader(d *skv.Decoder) reqHeader {
	// An empty request predates the header (an unversioned ping): version 0.
	var v byte
	if len(d.Rest()) > 0 {
		v = d.Byte()
	}
	if v != wireVersion {
		d.Fail(fmt.Errorf("%w: request version %d, server version %d", ErrWireVersion, v, wireVersion))
	}
	var h reqHeader
	h.table = d.Str()
	h.start = d.Str()
	h.end = d.Str()
	h.trace = d.Uvarint()
	h.span = d.Uvarint()
	h.tenant = d.Str()
	return h
}

// remoteErr restores ErrWireVersion from a handler failure, which
// crosses the transport as a message only.
func remoteErr(err error) error {
	var re *transport.RemoteError
	if errors.As(err, &re) && strings.HasPrefix(re.Msg, ErrWireVersion.Error()) {
		return fmt.Errorf("%w%s", ErrWireVersion, strings.TrimPrefix(re.Msg, ErrWireVersion.Error()))
	}
	return err
}

// call sends one unary request to the tablet server at endpoint.
func call(tr transport.Transport, endpoint string, op byte, req []byte) error {
	conn, err := tr.Dial(endpoint)
	if err == nil {
		_, err = conn.Call(op, req)
	}
	return remoteErr(err)
}

// --- unary requests ---

// encodeCall encodes a unary request: the header, then for opWrite the
// skv.EncodeBatch payload (batch is nil for every other op).
func encodeCall(op byte, h reqHeader, batch []byte) []byte {
	dst := appendHeader(nil, h)
	if op == opWrite {
		dst = skv.AppendBytes(dst, batch)
	}
	return dst
}

// decodeCall decodes a request encoded by encodeCall.
func decodeCall(op byte, src []byte) (reqHeader, []byte, error) {
	d := skv.NewDecoder(src)
	h := readHeader(&d)
	var batch []byte
	if op == opWrite {
		batch = d.Bytes()
	}
	return h, batch, d.Done()
}

// --- scan request tail ---

// scanReq is the tail of an opScan request: the already-clipped, sorted
// range list (SpRef push-down; empty = the full tablet), the fully
// merged iterator stack (table scan scope + per-scan extras — merged
// router-side so servers need no table metadata), the batch size for the
// response stream, the family set, and the routing topology.
type scanReq struct {
	ranges   []skv.Range
	settings []iterator.Setting
	batch    int
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

func encodeScanReq(h reqHeader, r scanReq) []byte {
	dst := appendHeader(nil, h)
	dst = binary.AppendUvarint(dst, uint64(len(r.ranges)))
	for _, rng := range r.ranges {
		dst = appendRange(dst, rng)
	}
	dst = appendSettings(dst, r.settings)
	dst = binary.AppendUvarint(dst, uint64(r.batch))
	dst = binary.AppendUvarint(dst, uint64(len(r.families)))
	for _, f := range r.families {
		dst = skv.AppendString(dst, f)
	}
	if r.topoRaw != nil {
		return append(dst, r.topoRaw...)
	}
	return appendTopology(dst, r.topo)
}

func decodeScanReq(src []byte) (reqHeader, scanReq, error) {
	d := skv.NewDecoder(src)
	h := readHeader(&d)
	var r scanReq
	// A range is at least its flags byte.
	for i, n := 0, d.Count(1); i < n; i++ {
		r.ranges = append(r.ranges, readRange(&d))
	}
	r.settings = readSettings(&d)
	r.batch = d.Int()
	if n := d.Count(1); n > 0 {
		r.families = make([]string, n)
		for i := range r.families {
			r.families[i] = d.Str()
		}
	}
	// The topology is the final field, so the remaining bytes are its
	// raw form — kept for zero-cost pass-through into nested requests.
	r.topoRaw = d.Rest()
	r.topo = readTopology(&d)
	return h, r, d.Done()
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
		dst = skv.AppendKey(dst, rng.Start)
	}
	if rng.HasEnd {
		dst = skv.AppendKey(dst, rng.End)
	}
	return dst
}

func readRange(d *skv.Decoder) skv.Range {
	var rng skv.Range
	flags := d.Byte()
	if flags&1 != 0 {
		rng.HasStart, rng.Start = true, d.Key()
	}
	if flags&2 != 0 {
		rng.HasEnd, rng.End = true, d.Key()
	}
	return rng
}

func appendSettings(dst []byte, settings []iterator.Setting) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(settings)))
	for _, s := range settings {
		dst = skv.AppendString(dst, s.Name)
		dst = binary.AppendUvarint(dst, uint64(s.Priority))
		dst = binary.AppendUvarint(dst, uint64(len(s.Opts)))
		for k, v := range s.Opts {
			dst = skv.AppendString(dst, k)
			dst = skv.AppendString(dst, v)
		}
	}
	return dst
}

func readSettings(d *skv.Decoder) []iterator.Setting {
	// A setting is at least name prefix + priority + opts count.
	var settings []iterator.Setting
	for i, n := 0, d.Count(3); i < n; i++ {
		var s iterator.Setting
		s.Name = d.Str()
		s.Priority = d.Int()
		if nOpts := d.Count(2); nOpts > 0 {
			s.Opts = make(map[string]string, nOpts)
			for j := 0; j < nOpts; j++ {
				k := d.Str()
				s.Opts[k] = d.Str()
			}
		}
		settings = append(settings, s)
	}
	return settings
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
	dst = binary.AppendUvarint(dst, uint64(t.wireBatch))
	dst = binary.AppendUvarint(dst, uint64(t.scanPar))
	dst = binary.AppendUvarint(dst, uint64(len(t.tables)))
	for _, tt := range t.tables {
		dst = skv.AppendString(dst, tt.name)
		dst = appendSettings(dst, tt.scan)
		dst = binary.AppendUvarint(dst, uint64(len(tt.tablets)))
		for _, tb := range tt.tablets {
			dst = skv.AppendString(dst, tb.start)
			dst = skv.AppendString(dst, tb.end)
			dst = skv.AppendString(dst, tb.endpoint)
		}
	}
	return dst
}

func readTopology(d *skv.Decoder) *topology {
	if d.Byte() == 0 {
		return nil
	}
	t := &topology{}
	t.wireBatch = d.Int()
	t.scanPar = d.Int()
	// A table is at least a name prefix + settings count + tablet count.
	for i, n := 0, d.Count(3); i < n; i++ {
		tt := topoTable{name: d.Str()}
		tt.scan = readSettings(d)
		// A tablet entry is at least three string prefixes.
		for j, m := 0, d.Count(3); j < m; j++ {
			var tb topoTablet
			tb.start = d.Str()
			tb.end = d.Str()
			tb.endpoint = d.Str()
			tt.tablets = append(tt.tablets, tb)
		}
		t.tables = append(t.tables, tt)
	}
	return t
}
