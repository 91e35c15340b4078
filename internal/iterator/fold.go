package iterator

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// foldCellOverhead approximates a buffered cell's footprint beyond its
// key strings (index slot, accumulator, entry).
const foldCellOverhead = 64

// FoldIterator is the bounded ⊕-fold stage the planner places directly
// below the sink of every multiply chain: partial products fold per
// output cell under ring.Add where they are made, so only folded cells
// cross the write path (RemoteWrite) or the wire (a folding collect).
// When the buffer's estimated footprint reaches the budget the stage
// emits the buffered generation in ascending key order and refills, so
// a pass over a power-law tablet cannot hold the whole output. Cells
// that collide across generations or tablets still meet the sink's own
// ⊕ (the result table's combiner, the client's fold), which ring.Add
// must match: results are cell-identical to no fold stage, only the
// volume downstream shrinks. Non-numeric values cannot fold and pass
// through. Output ascends within a generation, not across them, so the
// stage feeds order-free sinks, like the TwoTableIterator below it.
// Absorbed products are counted through the env's Counters. Over a
// TwoTableIterator the stage reads products through TopProduct, so no
// value is formatted to text and re-parsed between its ⊗ and its ⊕.
type FoldIterator struct {
	src    SKVI
	ring   semiring.Semiring
	budget int
	env    Env

	// run is the current generation: cells in first-seen order while it
	// fills (acc[i] accumulates run[i], idx finds it), then formatted,
	// sorted and emitted from pos on.
	idx map[skv.Key]int32
	run []skv.Entry
	acc []float64
	pos int
}

// NewFoldIterator wraps src with a fold buffer of about budget bytes
// (below one cell's worth, every entry is its own generation).
func NewFoldIterator(src SKVI, ring semiring.Semiring, budget int, env Env) *FoldIterator {
	return &FoldIterator{src: src, ring: ring, budget: max(budget, 1), env: env, idx: map[skv.Key]int32{}}
}

// Seek implements SKVI.
func (f *FoldIterator) Seek(rng skv.Range) error {
	if err := f.src.Seek(rng); err != nil {
		return err
	}
	return f.fill()
}

// absorb ⊕-folds v into cell k and reports whether the cell existed.
func (f *FoldIterator) absorb(k skv.Key, v float64) bool {
	if i, dup := f.idx[k]; dup {
		f.acc[i] = f.ring.Add(f.acc[i], v)
		return true
	}
	f.idx[k] = int32(len(f.acc))
	if len(f.run) == cap(f.run) {
		// Double: append's 1.25× re-copies a large slice five times over.
		f.run = slices.Grow(f.run, max(len(f.run), 256))
		f.acc = slices.Grow(f.acc, max(len(f.acc), 256))
	}
	f.run = append(f.run, skv.Entry{K: k})
	f.acc = append(f.acc, v)
	return false
}

// fill drains the source into the next generation — until the budget is
// reached or the source runs dry — then formats and sorts it.
func (f *FoldIterator) fill() error {
	clear(f.idx)
	f.run, f.acc, f.pos = f.run[:0], f.acc[:0], 0
	products, _ := f.src.(*TwoTableIterator)
	var raw []skv.Entry // non-numeric entries, passed through
	bytes, folded := 0, 0
	for bytes < f.budget && f.src.HasTop() {
		var k skv.Key
		var v float64
		numeric := true
		if products != nil {
			k.Row, k.ColQ, v = products.TopProduct()
		} else {
			e := f.src.Top()
			if v, numeric = skv.DecodeFloat(e.V); !numeric {
				raw = append(raw, e)
				bytes += len(e.V)
			}
			k = e.K
			k.Ts = 0 // fold per logical cell; stamps are assigned at write time
		}
		if numeric && f.absorb(k, v) {
			folded++
		} else {
			bytes += len(k.Row) + len(k.ColF) + len(k.ColQ) + foldCellOverhead
		}
		if err := f.src.Next(); err != nil {
			return err
		}
	}
	countFolded(f.env, folded)
	// Text is formatted once per folded cell, into chunks the emitted
	// entries share; a chunk is never reused, so an entry stays valid
	// after the stage moves on.
	var text []byte
	for i, v := range f.acc {
		if cap(text)-len(text) < 32 {
			text = make([]byte, 0, 1<<14)
		}
		n := len(text)
		text = skv.AppendFloat(text, v)
		f.run[i].V = text[n:len(text):len(text)]
	}
	f.run = append(f.run, raw...)
	sort.Sort(byKey(f.run))
	return nil
}

// byKey sorts in place through indices: a comparison function handed
// two 80-byte entries by value spends longer copying than comparing.
type byKey []skv.Entry

func (r byKey) Len() int           { return len(r) }
func (r byKey) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r byKey) Less(i, j int) bool { return skv.Compare(r[i].K, r[j].K) < 0 }

// HasTop implements SKVI.
func (f *FoldIterator) HasTop() bool { return f.pos < len(f.run) }

// Top implements SKVI.
func (f *FoldIterator) Top() skv.Entry { return f.run[f.pos] }

// Next implements SKVI.
func (f *FoldIterator) Next() error {
	if f.pos++; f.pos < len(f.run) {
		return nil
	}
	return f.fill()
}

// TopRun returns the unconsumed rest of the current generation and
// leaves the iterator on its last entry, so the following Next starts
// the next generation. The slice is valid until that Next.
func (f *FoldIterator) TopRun() []skv.Entry {
	run := f.run[f.pos:]
	f.pos = len(f.run) - 1
	return run
}

func init() {
	Register("fold", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		budget, err := strconv.Atoi(opts["bytes"])
		if err != nil || budget <= 0 {
			return nil, fmt.Errorf("fold: bad bytes %q", opts["bytes"])
		}
		ring, err := ringOpt("fold", opts["semiring"])
		if err != nil {
			return nil, err
		}
		return NewFoldIterator(src, ring, budget, env), nil
	})
}
