package skv

import (
	"encoding/binary"
	"fmt"
)

// The wire codec serialises entry batches the way a thin client's RPC
// layer would: length-prefixed strings and varint timestamps. Routing
// every client↔server exchange through this codec keeps the simulated
// cluster honest about serialisation cost — the asymmetry that motivates
// Graphulo's server-side kernels.

// appendString appends a uvarint length prefix followed by the bytes.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(src []byte) (string, []byte, error) {
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return "", nil, fmt.Errorf("skv: truncated length prefix")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return "", nil, fmt.Errorf("skv: truncated string payload: want %d have %d", n, len(src))
	}
	return string(src[:n]), src[n:], nil
}

// EncodeEntry appends the wire form of e to dst.
func EncodeEntry(dst []byte, e Entry) []byte {
	dst = appendString(dst, e.K.Row)
	dst = appendString(dst, e.K.ColF)
	dst = appendString(dst, e.K.ColQ)
	dst = binary.AppendVarint(dst, e.K.Ts)
	dst = binary.AppendUvarint(dst, uint64(len(e.V)))
	return append(dst, e.V...)
}

// DecodeEntry parses one entry from src, returning the remainder.
func DecodeEntry(src []byte) (Entry, []byte, error) {
	var e Entry
	var err error
	if e.K.Row, src, err = readString(src); err != nil {
		return e, nil, err
	}
	if e.K.ColF, src, err = readString(src); err != nil {
		return e, nil, err
	}
	if e.K.ColQ, src, err = readString(src); err != nil {
		return e, nil, err
	}
	ts, k := binary.Varint(src)
	if k <= 0 {
		return e, nil, fmt.Errorf("skv: truncated timestamp")
	}
	src = src[k:]
	e.K.Ts = ts
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return e, nil, fmt.Errorf("skv: truncated value length")
	}
	src = src[k:]
	if uint64(len(src)) < n {
		return e, nil, fmt.Errorf("skv: truncated value payload")
	}
	e.V = append(Value(nil), src[:n]...)
	return e, src[n:], nil
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
	n, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("skv: truncated batch header")
	}
	src = src[k:]
	// The smallest possible entry (all fields empty) is 5 bytes; a count
	// beyond what the payload can hold is corruption, caught here before
	// it becomes an allocation panic on a network-supplied count.
	if n > uint64(len(src)/5) {
		return nil, fmt.Errorf("skv: batch count %d exceeds payload (%d bytes)", n, len(src))
	}
	out := make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		var e Entry
		var err error
		e, src, err = DecodeEntry(src)
		if err != nil {
			return nil, fmt.Errorf("skv: batch entry %d: %w", i, err)
		}
		out = append(out, e)
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("skv: %d trailing bytes after batch", len(src))
	}
	return out, nil
}
