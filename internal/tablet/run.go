package tablet

import (
	"sort"

	"graphulo/internal/iterator"
	"graphulo/internal/rfile"
	"graphulo/internal/skv"
)

// A run is one immutable sorted file of entries produced by compaction.
// In-memory tablets hold memRuns (the original stand-in for an Accumulo
// RFile); durable tablets hold diskRuns backed by on-disk rfiles.
type run interface {
	// iter returns a fresh, unseeked sorted iterator over the run.
	iter() iterator.SKVI
	// iterFamilies is iter constrained to a non-empty column-family
	// set. Disk-backed runs serve it by touching only the matching
	// families' block runs; in-memory runs filter per entry.
	iterFamilies(families []string) iterator.SKVI
	// count returns the number of entries stored.
	count() int
}

// memRun is an in-memory run. A sparse block index accelerates seeks
// the way RFile index blocks do.
type memRun struct {
	entries []skv.Entry
	// index holds every indexStride-th key for a first-stage binary
	// search; purely an access-path optimisation.
	index       []skv.Key
	indexStride int
}

const defaultIndexStride = 64

// newMemRun builds a run from entries that must already be sorted.
func newMemRun(entries []skv.Entry) *memRun {
	r := &memRun{entries: entries, indexStride: defaultIndexStride}
	for i := 0; i < len(entries); i += r.indexStride {
		r.index = append(r.index, entries[i].K)
	}
	return r
}

func (r *memRun) iter() iterator.SKVI { return &memRunIter{r: r} }
func (r *memRun) count() int          { return len(r.entries) }

func (r *memRun) iterFamilies(families []string) iterator.SKVI {
	return iterator.NewColumnFilterIter(&memRunIter{r: r}, families...)
}

// seekPos returns the position of the first entry with key >= k.
func (r *memRun) seekPos(k skv.Key) int {
	if len(r.entries) == 0 {
		return 0
	}
	// First stage: find the index block.
	blk := sort.Search(len(r.index), func(i int) bool {
		return skv.Compare(r.index[i], k) >= 0
	})
	lo := 0
	if blk > 0 {
		lo = (blk - 1) * r.indexStride
	}
	hi := blk*r.indexStride + 1
	if hi > len(r.entries) {
		hi = len(r.entries)
	}
	// Second stage: binary search within the block neighbourhood.
	return lo + sort.Search(hi-lo, func(i int) bool {
		return skv.Compare(r.entries[lo+i].K, k) >= 0
	})
}

// memRunIter iterates a memRun within a range; implements iterator.SKVI.
type memRunIter struct {
	r   *memRun
	rng skv.Range
	pos int
}

// Seek implements SKVI.
func (it *memRunIter) Seek(rng skv.Range) error {
	it.rng = rng
	if rng.HasStart {
		it.pos = it.r.seekPos(rng.Start)
	} else {
		it.pos = 0
	}
	return nil
}

// HasTop implements SKVI.
func (it *memRunIter) HasTop() bool {
	return it.pos < len(it.r.entries) && !it.rng.AfterEnd(it.r.entries[it.pos].K)
}

// Top implements SKVI.
func (it *memRunIter) Top() skv.Entry { return it.r.entries[it.pos] }

// Next implements SKVI.
func (it *memRunIter) Next() error {
	it.pos++
	return nil
}

// diskRun is a run backed by an on-disk rfile.
type diskRun struct {
	rd *rfile.Reader
}

func (d diskRun) iter() iterator.SKVI                          { return d.rd.Iter() }
func (d diskRun) iterFamilies(families []string) iterator.SKVI { return d.rd.IterFamilies(families) }
func (d diskRun) count() int                                   { return d.rd.Count() }
