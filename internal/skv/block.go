package skv

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrEntryCount is wrapped by ParseBlock's error when the bytes hold
// fewer or more entries than the caller's count.
var ErrEntryCount = errors.New("skv: entry count mismatch")

// blockRestartInterval is the number of entries between two restart
// points of a Block: a seek binary-searches the restarts, then reads at
// most this many entries in order.
const blockRestartInterval = 16

// blockPosSize is the resident size of one BlockPos.
const blockPosSize = 2 * bits.UintSize / 8

// Block is one rfile data block — entries written back to back by
// EncodeEntry — validated once by ParseBlock and read in place: an
// entry is cut from the block's bytes only when a reader reaches it.
// The bytes are one string, and every key a Block returns is made of
// substrings of it, so one retained key keeps the whole block's string
// alive; the values are copied into one value arena. A Block is
// immutable, so any number of goroutines may read it.
type Block struct {
	data     string     // the entries, as EncodeEntry wrote them
	vals     []byte     // every value, in entry order
	restarts []BlockPos // every blockRestartInterval-th entry's position
}

// BlockPos is a position in a Block: an entry's byte offset in the
// block and its value's offset in the value arena. The zero BlockPos
// is the block's first entry.
type BlockPos struct {
	off, val int
}

// ParseBlock validates exactly n entries written back to back by
// EncodeEntry — an rfile data block — and returns them as a Block.
// Bytes holding fewer or more entries are an error wrapping
// ErrEntryCount, bytes that end inside an entry are a truncation as
// DecodeEntry reports it, and a varint longer than EncodeEntry writes
// it is corruption. Nothing is allocated until every entry validates,
// so a hostile count cannot size more than src could encode. The Block
// copies src once and shares no memory with it.
func ParseBlock(src []byte, n int) (*Block, error) {
	if n < 0 {
		return nil, fmt.Errorf("%w: negative count %d", ErrEntryCount, n)
	}
	var p entryParts
	var valBytes int
	rest := src
	for i := 0; i < n; i++ {
		if len(rest) == 0 {
			return nil, fmt.Errorf("%w: block ends after %d of %d entries", ErrEntryCount, i, n)
		}
		before := len(rest)
		var err error
		if rest, err = p.cut(rest); err != nil {
			return nil, fmt.Errorf("skv: block entry %d: %w", i, err)
		}
		if before-len(rest) != p.size() {
			// EncodeEntry writes minimal varints, so a longer one is
			// corruption, and rejecting it gives every entry one encoding.
			return nil, fmt.Errorf("skv: block entry %d: non-minimal varint", i)
		}
		valBytes += len(p.val)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes left after %d entries", ErrEntryCount, len(rest), n)
	}
	b := &Block{
		data:     string(src),
		vals:     make([]byte, valBytes),
		restarts: make([]BlockPos, 0, (n+blockRestartInterval-1)/blockRestartInterval),
	}
	// The bytes are valid now, so the fill reads them unchecked.
	var k Key
	var pos BlockPos
	for i := 0; i < n; i++ {
		if i%blockRestartInterval == 0 {
			b.restarts = append(b.restarts, pos)
		}
		vn, off := b.uvarint(b.key(pos.off, &k))
		end := off + int(vn)
		copy(b.vals[pos.val:], b.data[off:end])
		pos = BlockPos{off: end, val: pos.val + int(vn)}
	}
	return b, nil
}

// Size is the bytes the block keeps resident: its string, its value
// arena and its restarts.
func (b *Block) Size() int64 {
	return int64(len(b.data) + cap(b.vals) + cap(b.restarts)*blockPosSize)
}

// Read sets *e to the entry at p and returns the position after it; ok
// is false, and *e untouched, when p is the block's end. The key's
// fields are substrings of the block and the value a capped slice of
// the value arena — nil when empty, as DecodeEntry leaves it — so Read
// allocates nothing.
func (b *Block) Read(p BlockPos, e *Entry) (next BlockPos, ok bool) {
	if p.off >= len(b.data) {
		return p, false
	}
	off := b.key(p.off, &e.K)
	n, off := b.uvarint(off)
	next = BlockPos{off: off + int(n), val: p.val + int(n)}
	e.V = nil
	if n > 0 {
		e.V = b.vals[p.val:next.val:next.val]
	}
	return next, true
}

// Seek returns the position of the first entry whose key is not below
// k, or the block's end when there is none. It binary-searches the
// restarts, then reads at most blockRestartInterval entries in order.
func (b *Block) Seek(k Key) BlockPos {
	// Restarts [0, lo) hold keys below k, so the first entry not below
	// k lies after restart lo-1 and no later than restart lo.
	lo, hi := 0, len(b.restarts)
	var ek Key
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.key(b.restarts[m].off, &ek); Compare(ek, k) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == 0 {
		return BlockPos{}
	}
	p := b.restarts[lo-1]
	var e Entry
	for {
		next, ok := b.Read(p, &e)
		if !ok || Compare(e.K, k) >= 0 {
			return p
		}
		p = next
	}
}

// key reads the key at byte offset off into *k and returns the offset
// after it.
func (b *Block) key(off int, k *Key) int {
	k.Row, off = b.str(off)
	k.ColF, off = b.str(off)
	k.ColQ, off = b.str(off)
	z, off := b.uvarint(off)
	k.Ts = int64(z>>1) ^ -int64(z&1)
	return off
}

// str reads the length-prefixed string at off.
func (b *Block) str(off int) (string, int) {
	n, off := b.uvarint(off)
	end := off + int(n)
	return b.data[off:end], end
}

// uvarint reads the uvarint at off. ParseBlock validated every varint
// of the block, so none runs past its end.
func (b *Block) uvarint(off int) (uint64, int) {
	if c := b.data[off]; c < 0x80 {
		return uint64(c), off + 1
	}
	var v uint64
	for shift := uint(0); ; shift += 7 {
		c := b.data[off]
		off++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, off
		}
	}
}
