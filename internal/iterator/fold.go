package iterator

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
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
// below the sink of every multiply chain: partial products fold per
// output cell under ring.Add where they are made, so only folded cells
// cross the write path (RemoteWrite) or the wire (a folding collect).
// When the buffer's estimated footprint reaches the budget the stage
// emits the buffered generation in ascending key order and refills, so
// a pass over a power-law tablet cannot hold the whole output. Cells
// that collide across generations or tablets still meet the sink's own
// ⊕ (the result table's combiner, the collect's visitor), which ring.Add
// must match: results are cell-identical to no fold stage, only the
// volume downstream shrinks. Non-numeric values cannot fold and pass
// through. Output ascends within a generation, not across them, so the
// stage feeds order-free sinks, like the TwoTableIterator below it.
// Absorbed products are counted through the env's Counters.
//
// The stage folds on interned cell ids, not on keys: a cell is a row id
// and a column id packed into a uint64, and the buffer is pointer-free.
// Over a TwoTableIterator the ids are the ones it interned while
// decoding operand rows, read through TopProduct, so no product is
// formatted, re-parsed or hashed as text between its ⊗ and its ⊕; over
// any other source the stage interns each entry's row and (family,
// qualifier) itself. Names live for one pass (one Seek); each is charged
// to the budget in the generation that first interns it, beside the
// generation's cells. Text appears once per emitted cell.
type FoldIterator struct {
	src    SKVI
	ring   semiring.Semiring
	budget int
	env    Env

	// products is src when that is a TwoTableIterator; names is its
	// interners then, the stage's own otherwise. charged is the part of
	// names' bytes already charged to an earlier generation of the pass.
	products *TwoTableIterator
	names    *cellNames
	charged  int

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

// NewFoldIterator wraps src with a fold buffer of about budget bytes
// (below one cell's worth, every entry is its own generation).
func NewFoldIterator(src SKVI, ring semiring.Semiring, budget int, env Env) *FoldIterator {
	f := &FoldIterator{src: src, ring: ring, budget: max(budget, 1), env: env, idx: map[uint64]int32{}}
	if f.products, _ = src.(*TwoTableIterator); f.products != nil {
		f.names = &f.products.names
	} else {
		f.names = &cellNames{}
	}
	return f
}

// Seek implements SKVI.
func (f *FoldIterator) Seek(rng skv.Range) error {
	f.names.reset() // a TwoTable source resets again, then re-interns
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
	var raw []skv.Entry // non-numeric entries, passed through
	bytes, folded := 0, 0
	for f.src.HasTop() {
		var cell uint64
		var v float64
		numeric := true
		if f.products != nil {
			cell, v = f.products.TopProduct()
		} else {
			e := f.src.Top()
			if v, numeric = skv.DecodeFloat(e.V); numeric {
				// Fold per logical cell: stamps are assigned at write time.
				cell = packCell(f.names.row(e.K.Row), f.names.col(e.K.ColF, e.K.ColQ))
			} else {
				raw = append(raw, e)
				bytes += len(e.K.Row) + len(e.K.ColF) + len(e.K.ColQ) + len(e.V) + foldCellOverhead
			}
		}
		if numeric {
			if f.absorb(cell, v) {
				folded++
			} else {
				bytes += foldCellOverhead
			}
		}
		if err := f.src.Next(); err != nil {
			return err
		}
		// At least one entry per generation, so the stage always advances.
		if bytes+f.names.bytes()-f.charged >= f.budget {
			break
		}
	}
	f.charged = f.names.bytes()
	countFolded(f.env, folded)
	f.emit(raw)
	return nil
}

// emit builds the generation's entries in key order. Only the distinct
// names the cells use are sorted as strings; the cells then sort on
// packed (row rank, column rank) — integer compares on 16-byte values —
// and each cell's text is formatted once, into chunks the entries share.
// A chunk is never reused, so an entry stays valid after the stage moves
// on.
func (f *FoldIterator) emit(raw []skv.Entry) {
	rows, cols := &f.names.rows, &f.names.cols
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

	f.run = slices.Grow(f.run[:0], len(f.cells)+len(raw))
	var text []byte
	for _, c := range f.cells {
		if cap(text)-len(text) < 32 {
			text = make([]byte, 0, 1<<14)
		}
		n := len(text)
		text = skv.AppendFloat(text, c.v)
		row, col := rows.names[rows.used[c.cell>>32]], cols.names[cols.used[uint32(c.cell)]]
		f.run = append(f.run, skv.Entry{
			K: skv.Key{Row: row.qual, ColF: col.fam, ColQ: col.qual},
			V: text[n:len(text):len(text)],
		})
	}
	if len(raw) > 0 {
		f.run = append(f.run, raw...)
		sort.Sort(byKey(f.run))
	}
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

// cellName is an interned cell coordinate: a column's family and
// qualifier, or a row in qual with fam empty.
type cellName struct{ fam, qual string }

func compareNames(a, b cellName) int {
	if c := strings.Compare(a.fam, b.fam); c != 0 {
		return c
	}
	return strings.Compare(a.qual, b.qual)
}

// interner numbers distinct names densely in first-seen order and
// tallies their estimated footprint in bytes.
type interner struct {
	ids   map[cellName]uint32
	names []cellName
	bytes int

	// Ranking scratch: rank[id] is a used name's position in key order,
	// used[rank] its id.
	rank, used []uint32
}

// id returns n's id, interning it first if it is new.
func (in *interner) id(n cellName) uint32 {
	if id, ok := in.ids[n]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = map[cellName]uint32{}
	}
	id := uint32(len(in.names))
	in.ids[n] = id
	in.names = append(in.names, n)
	in.bytes += len(n.fam) + len(n.qual) + foldNameOverhead
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
	slices.SortFunc(in.used, func(a, b uint32) int { return compareNames(in.names[a], in.names[b]) })
	for r, id := range in.used {
		in.rank[id] = uint32(r)
	}
}

// cellNames interns the rows and columns of one pass's output cells, so
// a cell is a packed pair of ids (packCell).
type cellNames struct {
	rows, cols interner
}

func (n *cellNames) row(r string) uint32    { return n.rows.id(cellName{qual: r}) }
func (n *cellNames) col(f, q string) uint32 { return n.cols.id(cellName{fam: f, qual: q}) }
func (n *cellNames) bytes() int             { return n.rows.bytes + n.cols.bytes }

func (n *cellNames) reset() {
	n.rows.reset()
	n.cols.reset()
}

// key resolves a cell to its key.
func (n *cellNames) key(cell uint64) skv.Key {
	col := n.cols.names[uint32(cell)]
	return skv.Key{Row: n.rows.names[cell>>32].qual, ColF: col.fam, ColQ: col.qual}
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
		return NewFoldIterator(src, ring, budget, env), nil
	})
}
