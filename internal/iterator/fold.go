package iterator

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// foldCellOverhead approximates a buffered cell's footprint (table slot,
// index entry, emitted entry); foldNameOverhead an interned name's beyond
// its bytes (index entry, name slot, rank slots).
const (
	foldCellOverhead = 64
	foldNameOverhead = 48
)

// FoldIterator is the bounded ⊕-fold stage the planner places directly
// over the TwoTableIterator of every multiply: partial products fold per
// output cell under ring.Add where they are made, so only folded cells
// cross the write path (RemoteWrite) or the wire (a collect).
// When the buffer's estimated footprint reaches the budget the stage
// emits the buffered generation in ascending key order and refills, so
// a pass over a power-law tablet cannot hold the whole output. Cells
// that collide across generations or tablets still meet the sink's own
// ⊕ (the result table's combiner, the collect's visitor), which ring.Add
// must match: results are cell-identical to no fold stage, only the
// volume downstream shrinks. Output ascends within a generation, not
// across them, so the stage feeds order-free sinks, like the
// TwoTableIterator below it. Absorbed products are counted through the
// env's Counters.
//
// The stage folds on interned cell ids, not on keys: a cell is a row id
// and a column id packed into a uint64, and the buffer is pointer-free.
// The ids are the ones the TwoTableIterator interned while decoding
// operand rows, read through TopProduct, so no product is formatted,
// re-parsed or hashed as text between its ⊗ and its ⊕. Names live for
// one pass (one Seek); each is charged to the budget in the generation
// that first interns it, beside the generation's cells. Text appears
// once per emitted cell.
type FoldIterator struct {
	src    *TwoTableIterator
	ring   semiring.Semiring
	budget int
	env    Env

	// charged is the part of src's name bytes already charged to an
	// earlier generation of the pass.
	charged int

	// cells is the generation while it fills, in first-seen order (idx
	// finds a cell's slot); run is the generation ordered and formatted,
	// emitted from pos on.
	idx   map[uint64]int32
	cells []foldCell
	run   []skv.Entry
	pos   int
}

// foldCell is one buffered output cell and its ⊕-accumulator.
type foldCell struct {
	cell uint64
	v    float64
}

// NewFoldIterator folds src's products in a buffer of about budget bytes
// (below one cell's worth, every product is its own generation).
func NewFoldIterator(src *TwoTableIterator, ring semiring.Semiring, budget int, env Env) *FoldIterator {
	return &FoldIterator{src: src, ring: ring, budget: max(budget, 1), env: env, idx: map[uint64]int32{}}
}

// Seek implements SKVI.
func (f *FoldIterator) Seek(rng skv.Range) error {
	f.charged = 0
	if err := f.src.Seek(rng); err != nil {
		return err
	}
	return f.fill()
}

// absorb ⊕-folds v into cell and reports whether the cell existed.
func (f *FoldIterator) absorb(cell uint64, v float64) bool {
	if i, dup := f.idx[cell]; dup {
		f.cells[i].v = f.ring.Add(f.cells[i].v, v)
		return true
	}
	f.idx[cell] = int32(len(f.cells))
	if len(f.cells) == cap(f.cells) {
		// Double: append's 1.25× re-copies a large slice five times over.
		f.cells = slices.Grow(f.cells, max(len(f.cells), 256))
	}
	f.cells = append(f.cells, foldCell{cell, v})
	return false
}

// fill drains the source into the next generation — until the budget is
// reached or the source runs dry — then orders and formats it.
func (f *FoldIterator) fill() error {
	clear(f.idx)
	f.cells, f.pos = f.cells[:0], 0
	names := &f.src.names
	bytes, folded := 0, 0
	for f.src.HasTop() {
		if f.absorb(f.src.TopProduct()) {
			folded++
		} else {
			bytes += foldCellOverhead
		}
		if err := f.src.Next(); err != nil {
			return err
		}
		// At least one product per generation, so the stage always advances.
		if bytes+names.bytes()-f.charged >= f.budget {
			break
		}
	}
	f.charged = names.bytes()
	countFolded(f.env, folded)
	f.emit()
	return nil
}

// emit builds the generation's entries in key order. Only the distinct
// names the cells use are sorted as strings; the cells then sort on
// packed (row rank, column rank) — integer compares on 16-byte values —
// and each cell's text is formatted once, into chunks the entries share.
// A chunk is never reused, so an entry stays valid after the stage moves
// on.
func (f *FoldIterator) emit() {
	rows, cols := &f.src.names.rows, &f.src.names.cols
	rows.startRanking()
	cols.startRanking()
	for _, c := range f.cells {
		rows.mark(uint32(c.cell >> 32))
		cols.mark(uint32(c.cell))
	}
	rows.finishRanking()
	cols.finishRanking()
	for i, c := range f.cells {
		f.cells[i].cell = packCell(rows.rank[c.cell>>32], cols.rank[uint32(c.cell)])
	}
	slices.SortFunc(f.cells, func(a, b foldCell) int { return cmp.Compare(a.cell, b.cell) })

	f.run = slices.Grow(f.run[:0], len(f.cells))
	var text []byte
	for _, c := range f.cells {
		if cap(text)-len(text) < 32 {
			text = make([]byte, 0, 1<<14)
		}
		n := len(text)
		text = skv.AppendFloat(text, c.v)
		f.run = append(f.run, skv.Entry{
			K: skv.Key{Row: rows.names[rows.used[c.cell>>32]], ColQ: cols.names[cols.used[uint32(c.cell)]]},
			V: text[n:len(text):len(text)],
		})
	}
}

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

// interner numbers distinct names — an output cell's row or column
// qualifier — densely in first-seen order and tallies their estimated
// footprint in bytes.
type interner struct {
	ids   map[string]uint32
	names []string
	bytes int

	// Ranking scratch: rank[id] is a used name's position in key order,
	// used[rank] its id.
	rank, used []uint32
}

// id returns n's id, interning it first if it is new.
func (in *interner) id(n string) uint32 {
	if id, ok := in.ids[n]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = map[string]uint32{}
	}
	id := uint32(len(in.names))
	in.ids[n] = id
	in.names = append(in.names, n)
	in.bytes += len(n) + foldNameOverhead
	return id
}

func (in *interner) reset() {
	clear(in.ids)
	clear(in.names)
	in.names, in.bytes = in.names[:0], 0
}

const unranked = ^uint32(0)

// startRanking, mark and finishRanking rank the names a generation uses:
// mark each id the generation holds, then finishRanking sorts them.
func (in *interner) startRanking() {
	in.rank = slices.Grow(in.rank[:0], len(in.names))[:len(in.names)]
	for i := range in.rank {
		in.rank[i] = unranked
	}
	in.used = in.used[:0]
}

func (in *interner) mark(id uint32) {
	if in.rank[id] == unranked {
		in.rank[id] = 0
		in.used = append(in.used, id)
	}
}

func (in *interner) finishRanking() {
	slices.SortFunc(in.used, func(a, b uint32) int { return strings.Compare(in.names[a], in.names[b]) })
	for r, id := range in.used {
		in.rank[id] = uint32(r)
	}
}

// cellNames interns the rows and columns of one pass's output cells, so
// a cell is a packed pair of ids (packCell).
type cellNames struct {
	rows, cols interner
}

func (n *cellNames) bytes() int { return n.rows.bytes + n.cols.bytes }

func (n *cellNames) reset() {
	n.rows.reset()
	n.cols.reset()
}

// key resolves a cell to its key.
func (n *cellNames) key(cell uint64) skv.Key {
	return skv.Key{Row: n.rows.names[cell>>32], ColQ: n.cols.names[uint32(cell)]}
}

func packCell(row, col uint32) uint64 { return uint64(row)<<32 | uint64(col) }

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
		// The fold is the ⊕ of the multiply below it: it folds that
		// multiply's products, under its ring, and nothing else.
		products, ok := src.(*TwoTableIterator)
		if !ok {
			return nil, fmt.Errorf("fold: source is %T, want the twoTable stage directly below", src)
		}
		if ring.Name != products.ring.Name {
			return nil, fmt.Errorf("fold: semiring %s over a %s multiply", ring.Name, products.ring.Name)
		}
		return NewFoldIterator(products, ring, budget, env), nil
	})
}
