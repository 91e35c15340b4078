package tablet

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

const maxLevel = 16

// installFloor is the smallest write batch installed whole as a
// segment. Every segment is one more source in each merge over the
// memtable, so small ones cost reads more than they save writes. Filling
// a memtable with 1<<14 entries in sorted batches spread over the key
// space and flushing it (2-core x86, one CPU), installing instead of
// linking costs +36 % at 8-entry batches, −7 % at 32, −27 % at 256 and
// −38 % at 1024. The floor sits where most of the gain has arrived; the
// kernels' fold generations are thousands of entries.
const installFloor = 256

// maxSegments caps the segments one memtable holds, and so the merge
// width they add to every scan and to the flush. A memtable that
// installs a few batches and links the rest costs more than one that
// does either alone (the same measurement at 256-entry batches: 22 ms
// all linked, 25 ms with 4 segments, 17 ms with all 64), so the cap
// lets a memtable of the default 1<<14 entries fill with batches at the
// floor.
const maxSegments = 64

// memtable is an insert-only lock-free concurrent skip list keyed by
// skv.Key, beside a short immutable list of sorted segments. Inserts
// link nodes with compare-and-swap on atomic next pointers; there are
// no deletions, so no marked pointers or retry epochs are needed. Reads
// never take a lock and never copy: a reader captures the
// sequence-number watermark and walks the live structure, skipping
// entries inserted after the watermark, so scans never block writers
// and writers never block scans.
//
// A write batch enters in one of two ways (insertBatch):
//
//   - Installed whole as a segment: a batch of at least installFloor
//     entries whose keys ascend strictly, into a memtable whose skip
//     list has never been used and which holds fewer than maxSegments
//     segments. The segment keeps the batch's own slice behind a sparse
//     index (a memRun) and is published by one atomic count, so a
//     reader sees the batch whole or not at all. A kernel's fold
//     generation arrives this way, sorted, and pays no per-entry link.
//   - Linked into the skip list (linkBatch): its nodes, values and
//     towers come from three slabs, not three heap objects per entry.
//     While its keys ascend strictly, each search resumes from the
//     previous insert's predecessors (a finger); any other step
//     searches from the head.
//
// segMu orders installs against the skip list's first use, so every
// segment is published before the first skip-list entry takes its
// sequence number. Readers (sources) list the skip list first and then
// the segments newest first; a dedup merge over them resolves an equal
// full key to the last write.
//
// The snapshot contract is per-entry for the skip list, per-batch for
// a segment, matching what the merged read path needs: everything
// inserted before the cut is visible (once its insert's bottom-level
// link, or its segment, is published — an insert racing the cut itself
// may or may not be admitted), and everything inserted after is
// filtered out. Overwrites of the same full key (including timestamp)
// in the skip list swap the value in place, keeping the original
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

	segMu    sync.Mutex   // held by installs and the skip list's first use
	listUsed atomic.Bool  // set under segMu before the skip list's first insert
	nsegs    atomic.Int32 // segs[:nsegs] are published; segs[nsegs] is written under segMu
	segs     [maxSegments]*memRun
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

// insertBatch adds entries, installing them whole as a segment when
// the batch qualifies and linking them into the skip list otherwise,
// and reports whether it installed them. Safe for any number of
// concurrent inserters. An installed batch's slice is kept, so the
// caller must not modify its entries afterwards. Duplicate full keys
// (including timestamp) overwrite, the last write winning; distinct
// timestamps coexist as separate versions.
func (m *memtable) insertBatch(entries []skv.Entry) (installed bool) {
	if len(entries) == 0 {
		return false
	}
	if m.install(entries) {
		return true
	}
	if !m.listUsed.Load() {
		// The skip list's first use: under segMu, so every install is
		// published before this batch takes a sequence number, and no
		// install follows.
		m.segMu.Lock()
		m.listUsed.Store(true)
		m.segMu.Unlock()
	}
	m.linkBatch(entries)
	return false
}

// install adds entries as one segment if the batch is at least
// installFloor entries with strictly ascending keys, the skip list has
// never been used and the memtable holds fewer than maxSegments
// segments; it reports whether it did.
func (m *memtable) install(entries []skv.Entry) bool {
	if len(entries) < installFloor || m.listUsed.Load() || m.nsegs.Load() >= maxSegments {
		return false
	}
	var bytes int64
	for i, e := range entries {
		if i > 0 && skv.Compare(entries[i-1].K, e.K) >= 0 {
			return false
		}
		bytes += entryBytes(e)
	}
	run := newMemRun(entries)
	m.segMu.Lock()
	n := m.nsegs.Load()
	if m.listUsed.Load() || n >= maxSegments {
		m.segMu.Unlock()
		return false
	}
	m.segs[n] = run
	m.nsegs.Store(n + 1)
	m.segMu.Unlock()
	m.size.Add(int64(len(entries)))
	m.bytes.Add(bytes)
	return true
}

// entryBytes is an entry's share of approxBytes.
func entryBytes(e skv.Entry) int64 {
	return int64(len(e.K.Row) + len(e.K.ColF) + len(e.K.ColQ) + 8 + len(e.V))
}

// linkBatch links entries into the skip list. Duplicate full keys
// overwrite in place, the last in batch order winning.
func (m *memtable) linkBatch(entries []skv.Entry) {
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
			bytes += entryBytes(e)
			break
		}
	}
	m.size.Add(added)
	m.bytes.Add(bytes)
}

// iter returns a lock-free iterator over the live skip list, admitting
// exactly the entries whose insert was sequenced at or before now. It
// sees no segment; sources lists both.
func (m *memtable) iter() *memIter {
	return &memIter{m: m, wm: m.seq.Load()}
}

// sources appends the memtable's sorted sources, cut at one instant,
// in the order a dedup merge needs to resolve an equal full key to the
// last write: the skip list, every entry of which was written after
// every segment, then the published segments, newest first. The
// segment count is loaded after the watermark: a skip-list entry the
// watermark admits was written after the last install, so its
// segments are all in the count. An empty skip list adds no source.
func (m *memtable) sources(dst []iterator.SKVI) []iterator.SKVI {
	it := m.iter()
	n := int(m.nsegs.Load())
	if m.head.next[0].Load() != nil {
		dst = append(dst, it)
	}
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, m.segs[i].Iter())
	}
	return dst
}

// snapshot materialises all entries in sorted order (tests; scans
// merge the sources instead).
func (m *memtable) snapshot() []skv.Entry {
	it := iterator.NewDedupMergeIter(m.sources(nil)...)
	_ = it.Seek(skv.FullRange())
	out, _ := iterator.AppendAll(make([]skv.Entry, 0, m.count()), it)
	return out
}

// count returns the number of entries.
func (m *memtable) count() int { return int(m.size.Load()) }

// approxBytes returns the approximate heap footprint of stored entries.
func (m *memtable) approxBytes() int { return int(m.bytes.Load()) }

// memIter is a lock-free iterator over the memtable's skip list,
// implementing iterator.SKVI. It pins the watermark captured at
// creation across re-seeks, so one merged scan sees one cut of the
// memtable.
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
