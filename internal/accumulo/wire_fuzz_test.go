package accumulo

// Coverage for the request codecs. Every request leads with the one
// versioned header; the decoders face bytes from the network, so beyond
// round-trip fidelity the key property is that arbitrary input returns
// an error instead of panicking or over-allocating.

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/transport"
)

func fuzzScanSeed() (reqHeader, scanReq) {
	return reqHeader{
			table: "edges", start: "a", end: "m",
			trace: 1 << 63, span: 42, tenant: "acme",
		}, scanReq{
			ranges: []skv.Range{
				{HasStart: true, Start: skv.Key{Row: "b", ColF: "", ColQ: "x", Ts: 7}},
				{HasStart: true, HasEnd: true,
					Start: skv.Key{Row: "c"}, End: skv.Key{Row: "d", Ts: -1}},
				skv.RowRange("f", ""),
				{Start: skv.Key{Row: "d", ColF: "cf", ColQ: "q", Ts: 7}, HasStart: true,
					End: skv.Key{Row: "e", Ts: skv.MaxTs}, HasEnd: true},
			},
			settings: []iterator.Setting{
				{Name: "plus", Priority: 21, Opts: map[string]string{"type": "sum"}},
			},
			batch:    4096,
			families: []string{"", "edge"},
			topo: &topology{
				wireBatch: 2048,
				scanPar:   4,
				tables: []topoTable{{
					name: "edges",
					scan: []iterator.Setting{{Name: "vers", Priority: 20}},
					tablets: []topoTablet{
						{start: "", end: "m", endpoint: "127.0.0.1:9001"},
						{start: "m", end: "", endpoint: "127.0.0.1:9002"},
					},
				}},
			},
		}
}

// reqCase is one request of one op.
type reqCase struct {
	name  string
	op    byte
	hdr   reqHeader
	batch []byte  // opWrite's tail
	scan  scanReq // opScan's tail
}

func (c reqCase) encode() []byte {
	if c.op == opScan {
		return encodeScanReq(c.hdr, c.scan)
	}
	return encodeCall(c.op, c.hdr, c.batch)
}

// decodeAs decodes src as a request of op, returning the header and the
// op's tail (the scan tail without its raw-topology view).
func decodeAs(op byte, src []byte) (reqHeader, any, error) {
	if op == opScan {
		h, r, err := decodeScanReq(src)
		r.topoRaw = nil
		return h, r, err
	}
	return decodeCall(op, src)
}

func (c reqCase) tail() any {
	if c.op == opScan {
		return c.scan
	}
	return c.batch
}

// everyOp is one request per op, header fields at full width.
func everyOp() []reqCase {
	full := reqHeader{table: "tbl", start: "a", end: "z", trace: ^uint64(0), span: ^uint64(0), tenant: "gold"}
	hdr, scan := fuzzScanSeed()
	return []reqCase{
		{name: "ping", op: opPing},
		{name: "assign", op: opAssign, hdr: reqHeader{table: "tbl", start: "a", end: "z"}},
		{name: "drop", op: opDrop, hdr: reqHeader{table: "tbl"}},
		{name: "write", op: opWrite, hdr: full,
			batch: skv.EncodeBatch([]skv.Entry{{K: skv.Key{Row: "r", ColQ: "c", Ts: 3}, V: skv.EncodeFloat(1)}})},
		{name: "scan", op: opScan, hdr: hdr, scan: scan},
		{name: "scan, untraced full tablet", op: opScan, hdr: reqHeader{table: "T"}, scan: scanReq{batch: 1}},
		{name: "scan, max ids", op: opScan, hdr: full, scan: scanReq{
			ranges: []skv.Range{skv.RowRange("b", "c")}, batch: 8}},
	}
}

// roundTrip decodes c's encoding and checks the header and tail survive.
func roundTrip(t *testing.T, c reqCase) {
	t.Helper()
	h, tail, err := decodeAs(c.op, c.encode())
	if err != nil {
		t.Fatal(err)
	}
	if h != c.hdr {
		t.Errorf("header = %+v, want %+v", h, c.hdr)
	}
	if !reflect.DeepEqual(tail, c.tail()) {
		t.Errorf("tail = %+v, want %+v", tail, c.tail())
	}
}

// TestRequestCodecEveryOp: each op's request round-trips; hostile
// counts fail with an error instead of sizing an allocation.
func TestRequestCodecEveryOp(t *testing.T) {
	for _, c := range everyOp() {
		t.Run(c.name, func(t *testing.T) { roundTrip(t, c) })
	}
	t.Run("hostile counts", func(t *testing.T) {
		head := appendHeader(nil, reqHeader{table: "T"})
		settings := binary.AppendUvarint(binary.AppendUvarint(append([]byte(nil), head...), 0), 1<<50)
		ranges := binary.AppendUvarint(append([]byte(nil), head...), 1<<50)
		for name, req := range map[string][]byte{"settings": settings, "ranges": ranges} {
			if _, _, err := decodeScanReq(req); err == nil {
				t.Errorf("decodeScanReq accepted a %s count of 1<<50", name)
			}
		}
	})
}

// TestScanReqRoundTrip pins the scan codec: every field survives
// encode/decode, and the raw-topology view re-splices into an identical
// request.
func TestScanReqRoundTrip(t *testing.T) {
	hdr, want := fuzzScanSeed()
	roundTrip(t, reqCase{name: "scan", op: opScan, hdr: hdr, scan: want})
	_, got, err := decodeScanReq(encodeScanReq(hdr, want))
	if err != nil {
		t.Fatal(err)
	}
	re := want
	re.topo, re.topoRaw = nil, got.topoRaw
	if _, again, err := decodeScanReq(encodeScanReq(hdr, re)); err != nil || !reflect.DeepEqual(again.topo, want.topo) {
		t.Fatalf("topoRaw splice: %+v, %v", again.topo, err)
	}
}

// TestWriteReqRoundTrip pins the write codec: the header, tenant
// included, and the entry batch behind it survive intact.
func TestWriteReqRoundTrip(t *testing.T) {
	hdr := reqHeader{table: "edges", start: "a", end: "", trace: 99, tenant: "acme"}
	batch := []byte{1, 2, 3}
	h, got, err := decodeCall(opWrite, encodeCall(opWrite, hdr, batch))
	if err != nil {
		t.Fatal(err)
	}
	if h != hdr || string(got) != string(batch) {
		t.Fatalf("decodeCall = %+v %v, want %+v %v", h, got, hdr, batch)
	}
}

// TestTraceIDWireRoundTrip pins that the trace ids survive the codec at
// full width and as zero: a daemon can only attach its pass spans to
// the originating kernel query if the ids arrive intact.
func TestTraceIDWireRoundTrip(t *testing.T) {
	for _, c := range everyOp() {
		if c.op != opScan && c.op != opWrite {
			continue
		}
		h, _, err := decodeAs(c.op, c.encode())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h.trace != c.hdr.trace || h.span != c.hdr.span {
			t.Errorf("%s: ids = %x/%x, want %x/%x", c.name, h.trace, h.span, c.hdr.trace, c.hdr.span)
		}
	}
}

// TestTraceReqTruncatedFrames feeds every strict prefix of every op's
// request, and the request with one trailing byte, through the
// decoders: all must error, none may panic. The header's trace ids are
// max-width uvarints, so cuts land inside them too.
func TestTraceReqTruncatedFrames(t *testing.T) {
	for _, c := range everyOp() {
		enc := c.encode()
		for i := 0; i < len(enc); i++ {
			if _, _, err := decodeAs(c.op, enc[:i]); err == nil {
				t.Errorf("%s: accepted a %d/%d-byte prefix", c.name, i, len(enc))
			}
		}
		if _, _, err := decodeAs(c.op, append(enc, 0)); err == nil {
			t.Errorf("%s: accepted a trailing byte", c.name)
		}
	}
}

// otherVersion serves requests as a tablet server built with another
// wire version would: it sees every request's version byte changed.
type otherVersion struct{ transport.Handler }

func bumpVersion(req []byte) []byte {
	req = append([]byte(nil), req...)
	req[0]++
	return req
}

func (h otherVersion) Call(op byte, req []byte) ([]byte, error) {
	return h.Handler.Call(op, bumpVersion(req))
}

func (h otherVersion) Stream(op byte, req []byte, send func([]byte) error) error {
	return h.Handler.Stream(op, bumpVersion(req), send)
}

// TestWireVersionRejectedEveryOp sends every op's request with a wrong
// version byte straight to a tablet server, over inproc and tcp: each
// fails with ErrWireVersion on the calling side. A coordinator dialing a
// server of another version fails at open, at its ping.
func TestWireVersionRejectedEveryOp(t *testing.T) {
	for _, mode := range []string{TransportInProc, TransportTCP} {
		t.Run(mode, func(t *testing.T) {
			mc, err := OpenMiniCluster(Config{Transport: mode, TabletServers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			ep := mc.endpoints[0]
			for _, c := range everyOp() {
				req := bumpVersion(c.encode())
				if c.op == opScan {
					done := make(chan struct{})
					err = relayScan(mc.tr, mc.tel, nil, ep, req, make(chan []skv.Entry, 1), done, nil)
					close(done)
				} else {
					err = call(mc.tr, ep, c.op, req)
				}
				if !errors.Is(err, ErrWireVersion) {
					t.Errorf("%s: err = %v, want ErrWireVersion", c.name, err)
				}
			}
		})
	}

	srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	other, err := srv.tr.Listen("", otherVersion{&tabletHandler{s: srv}})
	if err != nil {
		t.Fatal(err)
	}
	if mc, err := OpenMiniCluster(Config{Servers: []string{other.Addr()}}); !errors.Is(err, ErrWireVersion) {
		if err == nil {
			mc.Close()
		}
		t.Fatalf("open against a server of another wire version: err = %v, want ErrWireVersion", err)
	}
}

// FuzzDecodeScanReq: arbitrary bytes never panic, and whatever decodes
// cleanly must re-encode to a decodable request with identical fields.
func FuzzDecodeScanReq(f *testing.F) {
	f.Add(encodeScanReq(fuzzScanSeed()))
	f.Add(encodeScanReq(reqHeader{table: "t"}, scanReq{}))
	f.Add(encodeScanReq(reqHeader{table: "t", tenant: "gold"}, scanReq{batch: 1}))
	f.Add(encodeScanReq(reqHeader{}, scanReq{
		ranges:   []skv.Range{{HasEnd: true, End: skv.Key{Row: "z"}}},
		settings: []iterator.Setting{{Name: "f", Priority: 1}},
	}))
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, r, err := decodeScanReq(data)
		if err != nil {
			return
		}
		h2, again, err := decodeScanReq(encodeScanReq(h, r))
		if err != nil {
			t.Fatalf("re-decode of valid request failed: %v", err)
		}
		if h2 != h || again.batch != r.batch || len(again.ranges) != len(r.ranges) ||
			len(again.settings) != len(r.settings) || !reflect.DeepEqual(again.families, r.families) {
			t.Fatalf("round trip diverged: %+v %+v vs %+v %+v", h2, again, h, r)
		}
	})
}

// FuzzDecodeWriteReq: same contract for the write request.
func FuzzDecodeWriteReq(f *testing.F) {
	f.Add(encodeCall(opWrite, reqHeader{table: "t", start: "a", end: "b", trace: 7, tenant: "acme"}, []byte{9}))
	f.Add(encodeCall(opWrite, reqHeader{}, nil))
	f.Add([]byte{})
	f.Add([]byte{wireVersion, 2, 'h', 'i'})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, batch, err := decodeCall(opWrite, data)
		if err != nil {
			return
		}
		h2, again, err := decodeCall(opWrite, encodeCall(opWrite, h, batch))
		if err != nil {
			t.Fatalf("re-decode of valid request failed: %v", err)
		}
		if h2 != h || string(again) != string(batch) {
			t.Fatalf("round trip diverged: %+v %q vs %+v %q", h2, again, h, batch)
		}
	})
}
