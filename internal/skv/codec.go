package skv

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The wire codec serialises entry batches the way a thin client's RPC
// layer would: length-prefixed strings and varint timestamps. Routing
// every client↔server exchange through this codec keeps the simulated
// cluster honest about serialisation cost — the asymmetry that motivates
// Graphulo's server-side kernels.
//
// It is also the one home of the byte primitives every other format
// builds on — tablet-server requests, telemetry trailers, the rfile
// index — so bytes from outside the process (a socket, a file) are
// decoded by one Decoder with one set of truncation and count guards.

// AppendString appends a uvarint length prefix followed by the bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends a uvarint length prefix followed by b.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendKey appends the wire form of a key: row, family and qualifier
// as length-prefixed strings, then the timestamp as a varint.
func AppendKey(dst []byte, k Key) []byte {
	dst = AppendString(dst, k.Row)
	dst = AppendString(dst, k.ColF)
	dst = AppendString(dst, k.ColQ)
	return binary.AppendVarint(dst, k.Ts)
}

// Decoder reads a payload built from the codec's primitives. It keeps
// the first error: every read after a failure returns a zero value and
// consumes nothing, so a caller decodes a whole frame and checks Err —
// or Done, which also rejects trailing bytes — once.
type Decoder struct {
	src []byte
	err error
}

// NewDecoder returns a Decoder over src. Bytes and Rest alias src.
func NewDecoder(src []byte) Decoder { return Decoder{src: src} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Done returns the first decode error, or an error if any bytes remain
// unread.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.src) != 0 {
		d.err = fmt.Errorf("skv: %d trailing bytes", len(d.src))
	}
	return d.err
}

// Fail records err as the decode error unless one is already recorded:
// the hook for a caller's own validation of a decoded value.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.src = nil
	}
}

// Rest returns the unread bytes without consuming them.
func (d *Decoder) Rest() []byte { return d.src }

func (d *Decoder) truncated(what string) {
	d.Fail(fmt.Errorf("skv: truncated %s", what))
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.src) < 1 {
		d.truncated("byte")
		return 0
	}
	b := d.src[0]
	d.src = d.src[1:]
	return b
}

// Fixed32 reads a little-endian uint32.
func (d *Decoder) Fixed32() uint32 {
	if len(d.src) < 4 {
		d.truncated("fixed32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.src)
	d.src = d.src[4:]
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, k := binary.Uvarint(d.src)
	if k <= 0 {
		d.truncated("uvarint")
		return 0
	}
	d.src = d.src[k:]
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	v, k := binary.Varint(d.src)
	if k <= 0 {
		d.truncated("varint")
		return 0
	}
	d.src = d.src[k:]
	return v
}

// Int reads a uvarint that must fit in an int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.Fail(fmt.Errorf("skv: value %d overflows int", v))
		return 0
	}
	return int(v)
}

// Count reads an item count and rejects one the unread payload cannot
// hold when every item takes at least minBytes, so a corrupt or hostile
// count fails here instead of sizing a huge allocation.
func (d *Decoder) Count(minBytes int) int {
	v := d.Uvarint()
	if v > uint64(len(d.src)/minBytes) {
		d.Fail(fmt.Errorf("skv: count %d exceeds remaining payload (%d bytes)", v, len(d.src)))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string. The result aliases the
// decoder's input.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if uint64(len(d.src)) < n {
		d.truncated("string")
		return nil
	}
	b := d.src[:n:n]
	d.src = d.src[n:]
	return b
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Key reads a key written by AppendKey.
func (d *Decoder) Key() Key {
	var k Key
	k.Row = d.Str()
	k.ColF = d.Str()
	k.ColQ = d.Str()
	k.Ts = d.Varint()
	return k
}

// Entry reads an entry written by EncodeEntry; its value is a copy.
func (d *Decoder) Entry() Entry {
	e, rest, err := DecodeEntry(d.src)
	if err != nil {
		d.Fail(err)
		return Entry{}
	}
	d.src = rest
	return e
}

// EncodeEntry appends the wire form of e to dst: its key as AppendKey
// writes it, then the value as length-prefixed bytes. Entry encode and
// decode are the codec's hot paths, so both are written out flat rather
// than through AppendKey and Decoder.
func EncodeEntry(dst []byte, e Entry) []byte {
	dst = AppendString(dst, e.K.Row)
	dst = AppendString(dst, e.K.ColF)
	dst = AppendString(dst, e.K.ColQ)
	dst = binary.AppendVarint(dst, e.K.Ts)
	return AppendBytes(dst, e.V)
}

// DecodeEntry parses one entry from src, returning the remainder.
func DecodeEntry(src []byte) (Entry, []byte, error) {
	var p entryParts
	rest, err := p.cut(src)
	if err != nil {
		return Entry{}, nil, err
	}
	k := Key{Row: string(p.row), ColF: string(p.colF), ColQ: string(p.colQ), Ts: p.ts}
	return Entry{K: k, V: append(Value(nil), p.val...)}, rest, nil
}

// entryParts is one wire entry cut into its fields; the byte fields
// alias the source.
type entryParts struct {
	row, colF, colQ, val []byte
	ts                   int64
}

// cut splits the entry at the head of src into p's fields, returning
// the remainder.
func (p *entryParts) cut(src []byte) (rest []byte, err error) {
	if p.row, src, err = readBytes(src); err != nil {
		return nil, err
	}
	if p.colF, src, err = readBytes(src); err != nil {
		return nil, err
	}
	if p.colQ, src, err = readBytes(src); err != nil {
		return nil, err
	}
	ts, k := binary.Varint(src)
	if k <= 0 {
		return nil, fmt.Errorf("skv: truncated timestamp")
	}
	src = src[k:]
	p.ts = ts
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("skv: truncated value length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, fmt.Errorf("skv: truncated value payload")
	}
	p.val = src[:n]
	return src[n:], nil
}

// size is the byte length of p's encoding as EncodeEntry writes it.
func (p *entryParts) size() int {
	zigzag := uint64(p.ts)<<1 ^ uint64(p.ts>>63)
	return uvarintLen(uint64(len(p.row))) + len(p.row) +
		uvarintLen(uint64(len(p.colF))) + len(p.colF) +
		uvarintLen(uint64(len(p.colQ))) + len(p.colQ) +
		uvarintLen(zigzag) +
		uvarintLen(uint64(len(p.val))) + len(p.val)
}

// uvarintLen is the byte length of v's minimal uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func readBytes(src []byte) ([]byte, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, nil, fmt.Errorf("skv: truncated length prefix")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return nil, nil, fmt.Errorf("skv: truncated string payload: want %d have %d", n, len(src))
	}
	return src[:n], src[n:], nil
}

// EncodeBatch serialises a batch of entries with a count header.
func EncodeBatch(entries []Entry) []byte {
	// Sized up front (32 B holds a typical graph entry) to spare regrowth.
	dst := binary.AppendUvarint(make([]byte, 0, 8+32*len(entries)), uint64(len(entries)))
	for _, e := range entries {
		dst = EncodeEntry(dst, e)
	}
	return dst
}

// DecodeBatch parses a batch produced by EncodeBatch.
func DecodeBatch(src []byte) ([]Entry, error) {
	d := NewDecoder(src)
	// The smallest possible entry (all fields empty) is 5 bytes.
	n := d.Count(5)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("skv: batch header: %w", err)
	}
	out := make([]Entry, 0, n)
	src = d.Rest()
	for i := 0; i < n; i++ {
		e, rest, err := DecodeEntry(src)
		if err != nil {
			return nil, fmt.Errorf("skv: batch entry %d: %w", i, err)
		}
		out = append(out, e)
		src = rest
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("skv: %d trailing bytes after batch", len(src))
	}
	return out, nil
}
