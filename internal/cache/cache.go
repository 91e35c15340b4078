// Package cache implements the shared block cache of the read path: a
// size-bounded LRU over decoded rfile data blocks, keyed by (file,
// block index). Every rfile Reader in a data directory consults one
// BlockCache, so a block that several scans touch — repeated kernel
// passes, TwoTableIterator remote seeks, BFS rounds re-reading the same
// adjacency rows — is read from disk, CRC-verified, and decoded exactly
// once while it stays resident. Eviction is strict LRU by decoded byte
// size; hits and misses are counted into a telemetry.StatSet — the
// cache's own, or the process block it is pointed at (CountInto).
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

// entryOverhead approximates the fixed per-entry heap cost (string
// headers, slice header, key struct) added to the payload bytes when
// charging a block against the capacity.
const entryOverhead = 64

// blockKey identifies one data block of one rfile.
type blockKey struct {
	file  string
	block int
}

// block is one resident cache element. tenant records who inserted it,
// for the per-tenant soft-cap accounting ("" = default tenant).
type block struct {
	key     blockKey
	tenant  string
	entries []skv.Entry
	size    int64
}

// BlockCache is a thread-safe LRU cache of decoded rfile blocks.
//
// Cache-partition hints: when a per-tenant soft cap is set
// (SetTenantSoftCap), each resident block is charged to the tenant that
// inserted it, and a tenant inserting past the cap evicts its own
// least-recently-used blocks first — so one tenant's table sweep cannot
// strip the whole cache from the others. The cap is soft: a tenant with
// no competition still uses the whole cache (global LRU eviction is the
// final backstop), and Get never discriminates — a hit is a hit no
// matter who faulted the block in.
type BlockCache struct {
	stats *telemetry.StatSet // CacheHits, CacheMisses

	mu      sync.Mutex
	max     int64
	softCap int64 // per-tenant soft cap; 0 = partitioning off
	size    int64
	ll      *list.List // front = most recently used; values are *block
	items   map[blockKey]*list.Element
	// tenantBytes charges resident bytes to the inserting tenant; only
	// maintained while partitioning is on.
	tenantBytes map[string]int64
}

// New creates a cache bounded by maxBytes of decoded entries
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

// entriesSize charges a decoded block by payload bytes plus a fixed
// per-entry overhead.
func entriesSize(entries []skv.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += int64(len(e.K.Row)+len(e.K.ColF)+len(e.K.ColQ)+len(e.V)) + entryOverhead
	}
	return n
}

// Get returns the cached block and records a hit or miss. The returned
// slice is shared — callers must treat it as immutable.
func (c *BlockCache) Get(file string, blockIdx int) ([]skv.Entry, bool) {
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
	return el.Value.(*block).entries, true
}

// Put inserts (or refreshes) a decoded block and evicts from the LRU
// tail until the cache fits its bound again. A block larger than the
// whole cache is not admitted. Equivalent to PutFor with the default
// tenant.
func (c *BlockCache) Put(file string, blockIdx int, entries []skv.Entry) {
	c.PutFor(file, blockIdx, "", entries)
}

// PutFor inserts a decoded block charged to tenant. When the per-tenant
// soft cap is on and this insert pushes the tenant over it, the
// tenant's own least-recently-used blocks are evicted first; global LRU
// eviction remains the final backstop for the cache-wide bound.
func (c *BlockCache) PutFor(file string, blockIdx int, tenant string, entries []skv.Entry) {
	if c == nil {
		return
	}
	size := entriesSize(entries)
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
	c.items[key] = c.ll.PushFront(&block{key: key, tenant: tenant, entries: entries, size: size})
	c.size += size
	if c.softCap > 0 {
		c.tenantBytes[tenant] += size
		// Soft cap: shed this tenant's own LRU blocks (never the newly
		// inserted one) while it sits over its share.
		for c.tenantBytes[tenant] > c.softCap {
			el := c.lruOfTenantLocked(tenant)
			if el == nil || el == c.items[key] {
				break
			}
			c.removeLocked(el)
		}
	}
	for c.size > c.max {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
	}
}

// lruOfTenantLocked returns the least-recently-used resident block
// charged to tenant, or nil; caller holds c.mu.
func (c *BlockCache) lruOfTenantLocked(tenant string) *list.Element {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if el.Value.(*block).tenant == tenant {
			return el
		}
	}
	return nil
}

// removeLocked unlinks one element; caller holds c.mu.
func (c *BlockCache) removeLocked(el *list.Element) {
	b := el.Value.(*block)
	c.ll.Remove(el)
	delete(c.items, b.key)
	c.size -= b.size
	if c.softCap > 0 {
		if rem := c.tenantBytes[b.tenant] - b.size; rem > 0 {
			c.tenantBytes[b.tenant] = rem
		} else {
			delete(c.tenantBytes, b.tenant)
		}
	}
}

// SetTenantSoftCap turns per-tenant accounting on with the given soft
// cap in bytes (<= 0 turns partitioning off). Call before the cache is
// shared; switching modes mid-flight resets the per-tenant charges.
func (c *BlockCache) SetTenantSoftCap(capBytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if capBytes <= 0 {
		c.softCap, c.tenantBytes = 0, nil
		return
	}
	c.softCap = capBytes
	c.tenantBytes = map[string]int64{}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		b := el.Value.(*block)
		c.tenantBytes[b.tenant] += b.size
	}
}

// TenantBytes returns the resident bytes charged to tenant (0 when
// partitioning is off).
func (c *BlockCache) TenantBytes(tenant string) int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tenantBytes[tenant]
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

// Bytes returns the resident decoded size.
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
