package rfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"graphulo/internal/skv"
)

// This file implements the per-rfile bloom filter over row keys. The
// writer collects one 64-bit hash per distinct row (rows arrive sorted,
// so distinctness is a single comparison) and sizes the bit array at
// Finish, LevelDB-style: nbits = distinctRows × DefaultBloomBitsPerKey,
// k ≈ DefaultBloomBitsPerKey·ln2 probes derived from the one hash by
// double hashing. Readers probe the filter before seeking a single-row
// range, so point and row lookups skip files that cannot contain the
// row without touching a data block.

// DefaultBloomBitsPerKey is the density of every filter the writer
// builds: ~1% false-positive rate at 10 bits per distinct key.
const DefaultBloomBitsPerKey = 10

// bloomProbes is k for DefaultBloomBitsPerKey: ⌊10·0.69⌋ ≈ 10·ln2.
const bloomProbes = DefaultBloomBitsPerKey * 69 / 100

// maxBloomProbes bounds the k a reader accepts, so a hostile index
// cannot make every probe loop for long.
const maxBloomProbes = 30

// bloomHash is the one hash each row contributes; probe positions are
// derived from it by double hashing, so the filter never re-hashes the
// row string.
func bloomHash(row string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	return h.Sum64()
}

// bloomHashPair hashes a (row, column-qualifier) pair for the column
// bloom. The NUL separator keeps distinct pairs from colliding
// except where a row itself contains NUL — and a collision there only
// costs a false positive, never a false negative.
func bloomHashPair(row, colQ string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(row))
	h.Write([]byte{0})
	h.Write([]byte(colQ))
	return h.Sum64()
}

// bloomFilter is an immutable bloom filter over key hashes; bits is
// never empty and k is at least 1.
type bloomFilter struct {
	bits []byte
	k    int
}

// buildBloom sizes and populates a filter for the given hashes. With no
// keys it returns a one-byte all-zero filter that rejects every probe —
// correct for an empty file.
func buildBloom(hashes []uint64) bloomFilter {
	nbits := max(len(hashes)*DefaultBloomBitsPerKey, 8)
	f := bloomFilter{bits: make([]byte, (nbits+7)/8), k: bloomProbes}
	nbits = len(f.bits) * 8
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := 0; i < f.k; i++ {
			pos := h % uint64(nbits)
			f.bits[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return f
}

// mayContain reports whether the filter admits the row hash; false
// means the file definitely holds no entry with that row.
func (f bloomFilter) mayContain(h uint64) bool {
	nbits := uint64(len(f.bits) * 8)
	delta := h>>33 | h<<31
	for i := 0; i < f.k; i++ {
		pos := h % nbits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// appendBloom serialises the filter onto the index blob: uvarint k,
// then the bit array as length-prefixed bytes.
func appendBloom(buf []byte, f bloomFilter) []byte {
	return skv.AppendBytes(binary.AppendUvarint(buf, uint64(f.k)), f.bits)
}

// parseBloom decodes a filter appended by appendBloom; a failure is
// recorded in d. Every writer emits a non-empty filter with at least one
// probe, so a zero-length or zero-probe section is corruption, not a
// disabled filter.
func parseBloom(d *skv.Decoder) bloomFilter {
	k := d.Uvarint()
	if d.Err() == nil && (k == 0 || k > maxBloomProbes) {
		d.Fail(fmt.Errorf("corrupt bloom probe count %d", k))
	}
	bits := d.Bytes()
	if d.Err() == nil && len(bits) == 0 {
		d.Fail(errors.New("corrupt zero-length bloom"))
	}
	return bloomFilter{bits: bits, k: int(k)}
}
