package tablet

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// maxSegments caps the segments one memtable holds, and so the merge
// width they add to every scan and to the flush. An install into a full
// memtable first merges a size tier of its segments into one.
const maxSegments = 64

// memtable is a published list of sorted segments, oldest first. Every
// write batch arrives sorted (sortBatch) and is installed whole as one
// segment: a memRun over the batch's own slice, published by one atomic
// count, so a reader sees a batch whole or not at all. Reads never take
// a lock and never copy: a reader loads the segment list once and reads
// the segments it holds, so scans never block writers and writers never
// block scans.
//
// Installs only append, under segMu. An install that finds maxSegments
// segments merges the contiguous group pickMergeGroup picks — the run
// bound's own size-tiered picker — into one segment, outside segMu, and
// publishes a fresh list with the group replaced. A full list changes
// only by such a merge, so the merge publishes unless another merge got
// there first; the loser installs into the list the winner published.
// The picker folds tiers of similar size, so a single-entry writer's
// entries are each copied about twice (TestMemtableSegmentCap). Other
// writers install meanwhile, but the merging writer holds the tablet's
// freeze lock shared, so a freeze that comes meanwhile waits for the
// merge, and so do the writers queued behind that freeze.
//
// Readers (sources) list the segments newest first; a dedup merge over
// them resolves an equal full key to the last write.
type memtable struct {
	size  atomic.Int64
	bytes atomic.Int64

	segMu sync.Mutex // held by installs and by a merge's publish
	segs  atomic.Pointer[segList]
}

// segList is one published segment list. runs[:n] are published;
// runs[n] is written under segMu before n grows. A merge publishes a new
// list rather than rewriting this one, so a reader that loaded it keeps
// a consistent view.
type segList struct {
	n    atomic.Int32
	runs [maxSegments]*memRun
}

func newMemtable() *memtable {
	m := &memtable{}
	m.segs.Store(&segList{})
	return m
}

// sortBatch returns a write batch in strictly ascending key order,
// keeping only the last of equal full keys (including timestamp). A
// batch that already ascends strictly is returned as it is; any other is
// copied, so the caller's slice keeps its order. Sorting positions
// rather than entries keeps the swaps small, and the position tie-break
// makes the unstable sort put the last write of a key first.
func sortBatch(entries []skv.Entry) []skv.Entry {
	asc := 1
	for asc < len(entries) && skv.Compare(entries[asc-1].K, entries[asc].K) < 0 {
		asc++
	}
	if asc >= len(entries) {
		return entries
	}
	idx := make([]int32, len(entries))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		if c := skv.Compare(entries[a].K, entries[b].K); c != 0 {
			return c
		}
		return cmp.Compare(b, a)
	})
	out := make([]skv.Entry, 0, len(entries))
	for _, i := range idx {
		if len(out) == 0 || skv.Compare(out[len(out)-1].K, entries[i].K) != 0 {
			out = append(out, entries[i])
		}
	}
	return out
}

// install adds a strictly ascending batch (sortBatch's output) as one
// segment, merging a tier first if the memtable holds maxSegments
// segments, and returns how many segments it merged. Safe for any
// number of concurrent installers. The segment keeps the batch's slice,
// so the caller must not modify its entries afterwards.
func (m *memtable) install(sorted []skv.Entry) (merged int) {
	if len(sorted) == 0 {
		return 0
	}
	run := newMemRun(sorted)
	for {
		m.segMu.Lock()
		l := m.segs.Load()
		if n := l.n.Load(); n < maxSegments {
			l.runs[n] = run
			l.n.Store(n + 1)
			m.segMu.Unlock()
			m.size.Add(int64(len(sorted)))
			m.bytes.Add(batchBytes(sorted))
			return merged
		}
		m.segMu.Unlock()
		merged += m.merge(l)
	}
}

// merge folds the group pickMergeGroup picks from the full list l into
// one segment and publishes l with the group replaced, unless l is no
// longer the published list; it returns the number of segments merged
// (0 when another merge published first).
func (m *memtable) merge(l *segList) int {
	sizes := make([]int, maxSegments)
	for i, r := range l.runs {
		sizes[i] = r.Count()
	}
	lo, hi := pickMergeGroup(sizes, DefaultMergeRatio)
	group := make([]iterator.SKVI, 0, hi-lo)
	total, before := 0, int64(0)
	for i := hi - 1; i >= lo; i-- { // newest first, so the last write wins
		group = append(group, l.runs[i].Iter())
		total += l.runs[i].Count()
		before += batchBytes(l.runs[i].entries)
	}
	it := iterator.NewDedupMergeIter(group...)
	_ = it.Seek(skv.FullRange()) // memRun sources cannot fail
	out, _ := iterator.AppendAll(make([]skv.Entry, 0, total), it)

	next := &segList{}
	n := copy(next.runs[:], l.runs[:lo])
	next.runs[n] = newMemRun(out)
	n += 1 + copy(next.runs[n+1:], l.runs[hi:])
	next.n.Store(int32(n))
	m.segMu.Lock()
	if m.segs.Load() != l {
		m.segMu.Unlock()
		return 0
	}
	m.segs.Store(next)
	m.segMu.Unlock()
	m.size.Add(int64(len(out) - total))
	m.bytes.Add(batchBytes(out) - before)
	return hi - lo
}

// batchBytes is entries' share of approxBytes.
func batchBytes(entries []skv.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += int64(len(e.K.Row) + len(e.K.ColF) + len(e.K.ColQ) + 8 + len(e.V))
	}
	return n
}

// sources appends the memtable's segments, from one load of the
// published list, newest first: the order a dedup merge needs to
// resolve an equal full key to the last write.
func (m *memtable) sources(dst []iterator.SKVI) []iterator.SKVI {
	l := m.segs.Load()
	for i := l.n.Load() - 1; i >= 0; i-- {
		dst = append(dst, l.runs[i].Iter())
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
