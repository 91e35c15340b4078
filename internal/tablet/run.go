package tablet

import (
	"sort"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// A Run is one immutable sorted file of entries produced by compaction.
// In-memory tablets hold memRuns (the original stand-in for an Accumulo
// RFile); durable tablets hold the *rfile.Reader their store hands back.
type Run interface {
	// Iter returns a fresh, unseeked sorted iterator over the run.
	Iter() iterator.SKVI
	// IterFamilies is Iter constrained to a non-empty column-family
	// set. Disk-backed runs serve it by touching only the matching
	// families' block runs; in-memory runs filter per entry.
	IterFamilies(families []string) iterator.SKVI
	// Count returns the number of entries stored.
	Count() int
}

// memBacking is an in-memory tablet's Backing: there is no log, so
// every mark is 0, and a written run is a memRun on the heap.
type memBacking struct{}

func (memBacking) LogAsync([]skv.Entry) (uint64, error) { return 0, nil }
func (memBacking) WaitDurable(uint64) error             { return nil }
func (memBacking) Rotate() (uint64, error)              { return 0, nil }

func (memBacking) WriteRun(entries []skv.Entry) (Run, error) { return memRunOf(entries), nil }
func (memBacking) Replace(Run, int, int, uint64) error       { return nil }
func (memBacking) DropRun(Run)                               {}

func (memBacking) Split(_ string, left, right []skv.Entry) (Backing, Backing, Run, Run, error) {
	return memBacking{}, memBacking{}, memRunOf(left), memRunOf(right), nil
}

// memRunOf builds a run over sorted entries; no entries is no run (a
// nil Run, never an empty one).
func memRunOf(entries []skv.Entry) Run {
	if len(entries) == 0 {
		return nil
	}
	return newMemRun(entries)
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
	r.index = make([]skv.Key, 0, (len(entries)+r.indexStride-1)/r.indexStride)
	for i := 0; i < len(entries); i += r.indexStride {
		r.index = append(r.index, entries[i].K)
	}
	return r
}

func (r *memRun) Iter() iterator.SKVI { return &memRunIter{r: r} }
func (r *memRun) Count() int          { return len(r.entries) }

func (r *memRun) IterFamilies(families []string) iterator.SKVI {
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
