// Package cache implements the shared block cache of the read path: a
// size-bounded LRU over parsed rfile data blocks (skv.Block), keyed by
// (file, block index). Every rfile Reader in a data directory consults
// one BlockCache, so a block that several scans touch — repeated kernel
// passes, TwoTableIterator remote seeks, BFS rounds re-reading the same
// adjacency rows — is read from disk, CRC-verified, and validated
// exactly once while it stays resident. Eviction is strict LRU by
// resident byte size; hits and misses are counted into a
// telemetry.StatSet — the cache's own, or the process block it is
// pointed at (CountInto).
//
// A cached block is its bytes, not its entries: one string holding the
// block as written, one value arena and one restart table, and readers
// cut entries from them as they reach them. The charge is exactly those
// bytes (skv.Block.Size). A key that outlives its block's eviction —
// held by an iterator, a fold buffer, an interned cell name — is a
// substring of the block's string and keeps that whole string (no
// larger than the block, ≈ 32 KiB) alive while it is held.
//
// A nil *BlockCache is a valid "cache disabled" value: every method is
// nil-receiver safe and behaves as a permanent miss, so callers thread
// the pointer through unconditionally.
package cache

import (
	"container/list"
	"sync"

	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// DefaultMaxBytes is the block-cache capacity used when a caller asks
// for a cache without sizing it.
const DefaultMaxBytes = 32 << 20

// blockKey identifies one data block of one rfile.
type blockKey struct {
	file  string
	block int
}

// block is one resident cache element.
type block struct {
	key  blockKey
	blk  *skv.Block
	size int64
}

// BlockCache is a thread-safe LRU cache of parsed rfile blocks.
type BlockCache struct {
	stats *telemetry.StatSet // CacheHits, CacheMisses

	mu    sync.Mutex
	max   int64
	size  int64
	ll    *list.List // front = most recently used; values are *block
	items map[blockKey]*list.Element
}

// New creates a cache bounded by maxBytes of resident blocks
// (maxBytes <= 0 selects DefaultMaxBytes).
func New(maxBytes int64) *BlockCache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &BlockCache{
		stats: new(telemetry.StatSet),
		max:   maxBytes,
		ll:    list.New(),
		items: map[blockKey]*list.Element{},
	}
}

// Get returns the cached block and records a hit or miss. A Block is
// immutable and shared across callers. The keys it returns are
// substrings of its string, so a caller that keeps one key keeps the
// whole block's string alive; copy a key (strings.Clone) to retain it
// beyond the block.
func (c *BlockCache) Get(file string, blockIdx int) (*skv.Block, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[blockKey{file, blockIdx}]
	if ok {
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.stats.Add(telemetry.CacheMisses, 1)
		return nil, false
	}
	c.stats.Add(telemetry.CacheHits, 1)
	return el.Value.(*block).blk, true
}

// Put inserts (or refreshes) a parsed block, charged at the bytes it
// keeps resident, and evicts from the LRU tail until the cache fits its
// bound again. A block larger than the whole cache is not admitted.
// Eviction drops only the cache's reference: a key a reader still holds
// keeps the evicted block's string alive.
func (c *BlockCache) Put(file string, blockIdx int, blk *skv.Block) {
	if c == nil {
		return
	}
	size := blk.Size()
	if size > c.max {
		return
	}
	key := blockKey{file, blockIdx}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, dup := c.items[key]; dup {
		// Concurrent loaders of the same block race benignly: keep the
		// resident copy fresh in the LRU and drop the duplicate.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&block{key: key, blk: blk, size: size})
	c.size += size
	for c.size > c.max {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
	}
}

// removeLocked unlinks one element; caller holds c.mu.
func (c *BlockCache) removeLocked(el *list.Element) {
	b := el.Value.(*block)
	c.ll.Remove(el)
	delete(c.items, b.key)
	c.size -= b.size
}

// EvictFile drops every resident block of one file — called when an
// rfile is deleted (major compaction, table drop) so dead blocks stop
// occupying capacity.
func (c *BlockCache) EvictFile(file string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.items {
		if key.file == file {
			c.removeLocked(el)
		}
	}
}

// CountInto makes the cache count its hits and misses into s — the
// process block — instead of a StatSet of its own. Call before the cache
// is shared.
func (c *BlockCache) CountInto(s *telemetry.StatSet) {
	if c != nil && s != nil {
		c.stats = s
	}
}

// Hits returns the cumulative hit count.
func (c *BlockCache) Hits() int64 {
	if c == nil {
		return 0
	}
	return c.stats.Get(telemetry.CacheHits)
}

// Misses returns the cumulative miss count.
func (c *BlockCache) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.stats.Get(telemetry.CacheMisses)
}

// Bytes returns the resident size of the cached blocks.
func (c *BlockCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Len returns the number of resident blocks.
func (c *BlockCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
