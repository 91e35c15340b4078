// Package tablet implements the storage engine under each tablet server:
// a skip-list memtable absorbing writes, immutable sorted runs ("RFiles")
// produced by minor compaction, k-way merged reads, and major compaction
// folding runs together with the table's compaction iterator stack.
//
// A tablet owns a contiguous row range of one table, exactly as in
// Accumulo; splitting a tablet at a row boundary yields two tablets that
// partition its range.
package tablet

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"graphulo/internal/skv"
)

const maxLevel = 16

// memtable is an insert-only lock-free concurrent skip list keyed by
// skv.Key. Inserts link nodes with compare-and-swap on atomic next
// pointers; there are no deletions, so no marked pointers or retry
// epochs are needed. Reads never take a lock and never copy: an
// iterator captures the sequence-number watermark at creation and walks
// the live structure, skipping entries inserted after the watermark, so
// scans never block writers and writers never block scans.
//
// A write batch is inserted as a batch (insertBatch): its nodes, values
// and towers come from three slabs, not three heap objects per entry.
// While its keys ascend strictly, each search resumes from the previous
// insert's predecessors (a finger); any other step searches from the head.
//
// The snapshot contract is per-entry, matching what the merged read
// path needs: every entry inserted before the watermark is visible
// (once its insert's bottom-level link lands — an insert racing the
// watermark capture itself may or may not be admitted), and entries
// inserted after are filtered out. Overwrites of the same full key
// (including timestamp) swap the value in place, keeping the original
// insert's sequence number; a concurrent reader admitted to the key
// then observes the freshest value rather than a historic one. The
// cluster write path stamps unique timestamps so same-full-key
// overwrite races only arise in direct tablet use and single-threaded
// WAL replay.
type memtable struct {
	head  *memNode
	seq   atomic.Uint64 // issues per-entry sequence numbers; loaded as the scan watermark
	size  atomic.Int64
	bytes atomic.Int64
}

// memVal pairs a value with the sequence number of the insert that
// first created its key, so iterators can filter by watermark.
type memVal struct {
	v   skv.Value
	seq uint64
}

type memNode struct {
	k    skv.Key
	val  atomic.Pointer[memVal]
	next []atomic.Pointer[memNode] // one per level of this node's tower
}

func newMemtable() *memtable {
	return &memtable{
		head: &memNode{next: make([]atomic.Pointer[memNode], maxLevel)},
	}
}

// levelOf turns a uniform draw into a tower height with
// P(level > L) = 2^-L.
func levelOf(r uint64) int {
	return min(1+bits.TrailingZeros64(r), maxLevel)
}

// findGE fills preds[i] and succs[i], on every level i up to the one
// it descends from, with the last node before k and the first node at
// or after k, and returns succs[0] and whether its key equals k. Every
// preds[i] from level lo up must be a node before k — the head or a
// finger left by a smaller key: the search climbs from lo to the first
// level whose successor is at or after k and descends from there.
//
// A successor counts as >= k only by a Compare or by identity with the
// node last proven so — never because it is a finger's, which a
// concurrent insert may have moved — and succs keeps the very load that
// proved it: a re-load could see a concurrently linked smaller key, and
// a CAS against that would splice the new node ahead of it.
func (m *memtable) findGE(k skv.Key, lo int, preds, succs *[maxLevel]*memNode) (*memNode, bool) {
	var ge *memNode // the node last proven >= k; nil sorts after every key
	eq := false
	top := lo
	for ; top < maxLevel-1; top++ {
		s := preds[top].next[top].Load()
		if s == nil {
			break
		}
		if c := skv.Compare(s.k, k); c >= 0 {
			ge, eq = s, c == 0
			break
		}
	}
	x := preds[top]
	for i := top; i >= 0; i-- {
		for {
			nxt := x.next[i].Load()
			if nxt != ge {
				c := 1
				if nxt != nil {
					c = skv.Compare(nxt.k, k)
				}
				if c < 0 {
					x = nxt
					continue
				}
				ge, eq = nxt, c == 0
			}
			preds[i], succs[i] = x, nxt
			break
		}
	}
	return ge, eq
}

// insertBatch adds entries; safe for any number of concurrent
// inserters. Duplicate full keys (including timestamp) overwrite in
// place, the last in batch order winning; distinct timestamps coexist
// as separate versions.
func (m *memtable) insertBatch(entries []skv.Entry) {
	// Tower heights are drawn twice from one seeded generator: once to
	// size the tower slab exactly, once as each node is built.
	s1, s2 := rand.Uint64(), rand.Uint64()
	g := rand.NewPCG(s1, s2)
	slots := 0
	for range entries {
		slots += levelOf(g.Uint64())
	}
	g.Seed(s1, s2)
	nodes := make([]memNode, len(entries))
	vals := make([]memVal, len(entries))
	towers := make([]atomic.Pointer[memNode], slots)

	var preds, succs [maxLevel]*memNode
	var added, bytes int64
	for i, e := range entries {
		n, v := &nodes[i], &vals[i]
		lvl := levelOf(g.Uint64())
		n.k, n.next, towers = e.K, towers[:lvl:lvl], towers[lvl:]
		// The finger holds nodes before the previous key, so it serves
		// only a key that sorts strictly after it.
		lo := lvl - 1
		if i == 0 || skv.Compare(entries[i-1].K, e.K) >= 0 {
			lo, preds[maxLevel-1] = maxLevel-1, m.head
		}
		for {
			if exist, eq := m.findGE(e.K, lo, &preds, &succs); eq {
				// Overwrite keeps the original insert's sequence number, so
				// a reader whose watermark already admits the key keeps
				// seeing it (with the freshest value) instead of losing it.
				// v is unpublished until the CAS lands, so it is reused
				// across attempts.
				for {
					cur := exist.val.Load()
					*v = memVal{v: e.V, seq: cur.seq}
					if exist.val.CompareAndSwap(cur, v) {
						bytes += int64(len(e.V) - len(cur.v))
						break
					}
				}
				break
			}
			if v.seq == 0 {
				*v = memVal{v: e.V, seq: m.seq.Add(1)}
				n.val.Store(v)
			}
			// The bottom-level CAS publishes the node; a failure means a
			// neighbour (or this very key) got linked first — search
			// again from the still-valid preds and retry.
			n.next[0].Store(succs[0])
			if !preds[0].next[0].CompareAndSwap(succs[0], n) {
				continue
			}
			// Link the express levels. Losing a CAS here only delays
			// search shortcuts, never visibility, so each level retries
			// locally against a fresh search from the head. That search
			// refreshes every level's succs, so each level's next is set
			// just before its own CAS, to the successor it CASes on.
			for j := 1; j < lvl; j++ {
				for {
					n.next[j].Store(succs[j])
					if preds[j].next[j].CompareAndSwap(succs[j], n) {
						break
					}
					preds[maxLevel-1] = m.head
					m.findGE(e.K, maxLevel-1, &preds, &succs)
				}
			}
			for j := 0; j < lvl; j++ {
				preds[j] = n
			}
			added++
			bytes += int64(len(e.K.Row) + len(e.K.ColF) + len(e.K.ColQ) + 8 + len(e.V))
			break
		}
	}
	m.size.Add(added)
	m.bytes.Add(bytes)
}

// iter returns a lock-free iterator over the live structure, admitting
// exactly the entries whose insert was sequenced at or before now.
func (m *memtable) iter() *memIter {
	return &memIter{m: m, wm: m.seq.Load()}
}

// snapshot materialises all entries in sorted order (tests and the
// split path; scans iterate the live structure instead).
func (m *memtable) snapshot() []skv.Entry {
	out := make([]skv.Entry, 0, m.count())
	it := m.iter()
	_ = it.Seek(skv.FullRange())
	for it.HasTop() {
		out = append(out, it.Top())
		_ = it.Next()
	}
	return out
}

// count returns the number of entries.
func (m *memtable) count() int { return int(m.size.Load()) }

// approxBytes returns the approximate heap footprint of stored entries.
func (m *memtable) approxBytes() int { return int(m.bytes.Load()) }

// memIter is a lock-free iterator over the memtable, implementing
// iterator.SKVI. It pins the watermark captured at creation across
// re-seeks, so one merged scan sees one cut of the memtable.
type memIter struct {
	m   *memtable
	wm  uint64
	rng skv.Range
	cur *memNode
	top skv.Entry
	ok  bool
}

// Seek implements SKVI.
func (it *memIter) Seek(rng skv.Range) error {
	it.rng = rng
	if rng.HasStart {
		var preds, succs [maxLevel]*memNode
		preds[maxLevel-1] = it.m.head
		it.cur, _ = it.m.findGE(rng.Start, maxLevel-1, &preds, &succs)
	} else {
		it.cur = it.m.head.next[0].Load()
	}
	it.settle()
	return nil
}

// settle advances cur to the next node admitted by the watermark,
// materialising its entry, and clears ok at the range end.
func (it *memIter) settle() {
	for x := it.cur; x != nil; x = x.next[0].Load() {
		if it.rng.AfterEnd(x.k) {
			break // keys only grow from here
		}
		v := x.val.Load()
		if v.seq <= it.wm {
			it.cur = x
			it.top = skv.Entry{K: x.k, V: v.v}
			it.ok = true
			return
		}
	}
	it.cur = nil
	it.ok = false
}

// HasTop implements SKVI.
func (it *memIter) HasTop() bool { return it.ok }

// Top implements SKVI.
func (it *memIter) Top() skv.Entry { return it.top }

// Next implements SKVI.
func (it *memIter) Next() error {
	if it.cur != nil {
		it.cur = it.cur.next[0].Load()
		it.settle()
	}
	return nil
}
