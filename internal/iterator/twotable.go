package iterator

import (
	"fmt"
	"slices"
	"strconv"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// This file implements the Graphulo kernel iterators. The server-side
// sparse matrix multiply C = Aᵀ·B works exactly as in Graphulo:
//
//   - A is stored transposed in table AT (row key = inner index).
//   - A scan over table B's tablets carries a TwoTableIterator whose
//     remote source is AT. For each inner row i present in both tables,
//     it emits the outer products A(i,·)ᵀ ⊗ B(i,·).
//   - A FoldIterator above it ⊕-folds those partial products per output
//     cell in a bounded buffer, and a RemoteWriteIterator above that
//     writes the folded cells into table C through the normal write
//     path; C carries a summing combiner, so cells that collide across
//     buffer generations or tablets still fold with ⊕.
//   - The scan client receives only one monitoring entry per tablet
//     with the count of entries written.
//
// The data never travels to the client: the multiply happens where B's
// tablets live, which is the paper's core systems idea (§I.A, §IV).

// RemoteSourceIterator reads entries of another table through the
// server-side client. Its options: "table" (required).
//
// The first Seek opens one remote scan covering that seek's range — the
// union of all ranges this iterator will see, which for a kernel pass
// is the pushed-down range intersected with the hosted tablet's row
// band, not the full table. Carrying both bounds to the remote scan
// lets the remote side skip tablets (and, through the rfile row index
// and bloom filters, files) that cannot overlap. The scan is streaming
// — the env hands back a cursor-backed SKVI holding wire batches, not a
// copy of the remote table — and later forward seeks within the opened
// range skip inside that open stream rather than re-issuing a remote
// scan. TwoTableIterator only ever seeks forward and clips its re-seeks
// to the opened band, so one tablet pass costs exactly one remote scan,
// matching Graphulo's streaming RemoteSourceIterator; only a seek
// outside the opened range, which no kernel issues, would force the
// source to re-open.
type RemoteSourceIterator struct {
	table    string
	families []string
	env      Env
	inner    SKVI
}

// NewRemoteSourceIterator returns an iterator over the named table.
func NewRemoteSourceIterator(table string, env Env) *RemoteSourceIterator {
	return &RemoteSourceIterator{table: table, env: env}
}

// NewRemoteSourceIteratorFamilies returns an iterator over the named
// table constrained to a column-family band: the band rides the remote
// scan request, so the serving tablets read only the matching rfile
// locality groups (empty = unconstrained).
func NewRemoteSourceIteratorFamilies(table string, families []string, env Env) *RemoteSourceIterator {
	return &RemoteSourceIterator{table: table, families: families, env: env}
}

// Seek implements SKVI.
func (r *RemoteSourceIterator) Seek(rng skv.Range) error {
	if r.inner == nil {
		it, err := OpenScannerFamilies(r.env, r.table, rng, r.families)
		if err != nil {
			return fmt.Errorf("remoteSource(%s): %w", r.table, err)
		}
		r.inner = it
	}
	return r.inner.Seek(rng)
}

// HasTop implements SKVI.
func (r *RemoteSourceIterator) HasTop() bool { return r.inner != nil && r.inner.HasTop() }

// Top implements SKVI.
func (r *RemoteSourceIterator) Top() skv.Entry { return r.inner.Top() }

// Next implements SKVI.
func (r *RemoteSourceIterator) Next() error { return r.inner.Next() }

// TwoTableIterator aligns the hosted table (source, playing B) with a
// remote table AT (playing Aᵀ) on row keys — the inner dimension of the
// multiply — and emits partial products of C = Aᵀ·B under the configured
// semiring. When it decodes an operand row it interns each entry's
// column qualifier once per pass: an Aᵀ-side id names an output row, a
// B-side id an output column. A product is then a pointer-free (cell,
// value) pair, cell being the two ids packed, so the ⊗ loop touches no
// string. The fold stage reads products as ids through TopProduct;
// generic consumers read them through Top, which resolves the ids and
// formats the value on demand. Output within one inner row ascends
// when both operand rows ascend by column qualifier (one family, one
// version), because the nested loop then visits pairs in key order;
// across inner rows it does not, so an order-free consumer — the fold
// stage, whose one source this is — must sit above it.
type TwoTableIterator struct {
	src    SKVI
	remote SKVI
	ring   semiring.Semiring

	// band is the whole-row projection of the current seek range: the
	// only inner rows this pass can align on. Remote (and re-issued
	// hosted) seeks are clipped to it, so the remote Aᵀ scan covers
	// exactly the pushed-down range ∩ the hosted tablet's rows — the
	// SpRef push-down — instead of the full table.
	band skv.Range

	// names interns the output rows and columns of the current pass.
	names cellNames

	// The current inner row of each operand, decoded once per entry, and
	// their partial products; all reused from one inner row to the next.
	aRow, bRow []operand
	buf        []product
	pos        int
}

// operand is one numeric entry of an operand row, its column qualifier
// interned; product one partial product (cell → v) of the output.
type (
	operand struct {
		id uint32
		v  float64
	}
	product struct {
		cell uint64
		v    float64
	}
)

// NewTwoTableIterator builds the multiply iterator. src iterates table B;
// remote iterates table AT.
func NewTwoTableIterator(src, remote SKVI, ring semiring.Semiring) *TwoTableIterator {
	return &TwoTableIterator{src: src, remote: remote, ring: ring}
}

// Seek implements SKVI. The range restricts B (the hosted side); the
// remote Aᵀ side is sought with the range's row band — rows outside it
// cannot align with anything this pass produces, so the remote scan
// prunes non-overlapping tablets and rfiles.
func (t *TwoTableIterator) Seek(rng skv.Range) error {
	t.band = rng.RowBand()
	t.names.reset()
	if err := t.src.Seek(rng); err != nil {
		return err
	}
	if err := t.remote.Seek(t.band); err != nil {
		return err
	}
	return t.fill()
}

// fill advances both sides to the next common inner row and materialises
// its outer product into buf.
func (t *TwoTableIterator) fill() error {
	t.buf = t.buf[:0]
	t.pos = 0
	for t.src.HasTop() && t.remote.HasTop() {
		bRow := t.src.Top().K.Row
		aRow := t.remote.Top().K.Row
		switch {
		case aRow < bRow:
			if err := t.seekRowFrom(t.remote, bRow); err != nil {
				return err
			}
		case bRow < aRow:
			if err := t.seekRowFrom(t.src, aRow); err != nil {
				return err
			}
		default:
			var err error
			if t.aRow, err = readRow(t.remote, aRow, t.aRow[:0], &t.names.rows); err != nil {
				return err
			}
			if t.bRow, err = readRow(t.src, bRow, t.bRow[:0], &t.names.cols); err != nil {
				return err
			}
			t.cross()
			if len(t.buf) > 0 {
				return nil
			}
			// All products were semiring zeros; keep scanning.
		}
	}
	return nil
}

// seekRowFrom advances it until its row key is >= row. It uses Next for
// short gaps and re-Seeks for long ones, the standard tablet-server
// heuristic. Re-seeks are clipped to the pass's row band: the hosted
// side must not escape the pushed-down range, and the remote side's
// stream was only opened that wide.
func (t *TwoTableIterator) seekRowFrom(it SKVI, row string) error {
	for probes := 0; it.HasTop() && it.Top().K.Row < row; probes++ {
		if probes >= 10 {
			return it.Seek(skv.RowRange(row, "").Clip(t.band))
		}
		if err := it.Next(); err != nil {
			return err
		}
	}
	return nil
}

// readRow consumes every entry of the given row from it, appending the
// numeric ones to dst with their column qualifiers interned by names.
func readRow(it SKVI, row string, dst []operand, names *interner) ([]operand, error) {
	for it.HasTop() {
		e := it.Top()
		if e.K.Row != row {
			break
		}
		if v, ok := skv.DecodeFloat(e.V); ok {
			dst = append(dst, operand{id: names.id(e.K.ColQ), v: v})
		}
		if err := it.Next(); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// cross emits ⊗-products of the two operand rows into buf: for AT entry
// (i, j → a) and B entry (i, k → b), the partial product is
// (j, k → a ⊗ b).
func (t *TwoTableIterator) cross() {
	t.buf = slices.Grow(t.buf, len(t.aRow)*len(t.bRow))
	for _, a := range t.aRow {
		for _, b := range t.bRow {
			p := t.ring.Mul(a.v, b.v)
			if t.ring.IsZero(p) {
				continue
			}
			t.buf = append(t.buf, product{cell: packCell(a.id, b.id), v: p})
		}
	}
}

// HasTop implements SKVI.
func (t *TwoTableIterator) HasTop() bool { return t.pos < len(t.buf) }

// Top implements SKVI.
func (t *TwoTableIterator) Top() skv.Entry {
	p := t.buf[t.pos]
	return skv.Entry{K: t.names.key(p.cell), V: skv.EncodeFloat(p.v)}
}

// TopProduct is Top without strings or text: the product's cell as ids
// interned in this pass's names, and its value — the typed accessor the
// fold stage reads products through.
func (t *TwoTableIterator) TopProduct() (cell uint64, v float64) {
	p := t.buf[t.pos]
	return p.cell, p.v
}

// Next implements SKVI.
func (t *TwoTableIterator) Next() error {
	t.pos++
	if t.pos < len(t.buf) {
		return nil
	}
	return t.fill()
}

// RemoteWriteIterator drains its source, writing every entry to a target
// table in batches through the server-side client, then exposes a single
// monitoring entry whose value is the count written. This is how
// Graphulo returns results: into another table, not to the scan client.
// A source of ready-made sorted runs (the fold stage's generations) is
// shipped a whole run per write, which the cluster's router cuts into
// one contiguous batch per tablet; anything else goes batchSize at a time.
type RemoteWriteIterator struct {
	src       SKVI
	table     string
	env       Env
	batchSize int

	written int
	has     bool
	top     skv.Entry
}

// NewRemoteWriteIterator builds a write-back sink over src.
func NewRemoteWriteIterator(src SKVI, table string, batchSize int, env Env) *RemoteWriteIterator {
	if batchSize <= 0 {
		batchSize = 4096
	}
	return &RemoteWriteIterator{src: src, table: table, env: env, batchSize: batchSize}
}

// NewPreAggRemoteWriteIterator builds a write-back sink over a fold
// stage of about preAggBytes over the multiply: fold → write. ring.Add
// must be the target table's combiner ⊕.
func NewPreAggRemoteWriteIterator(src *TwoTableIterator, table string, batchSize, preAggBytes int, ring semiring.Semiring, env Env) *RemoteWriteIterator {
	return NewRemoteWriteIterator(NewFoldIterator(src, ring, preAggBytes, env), table, batchSize, env)
}

// flushBatch writes one batch through the env.
func (w *RemoteWriteIterator) flushBatch(batch []skv.Entry) error {
	if len(batch) == 0 {
		return nil
	}
	if err := w.env.WriteEntries(w.table, batch); err != nil {
		return fmt.Errorf("remoteWrite(%s): %w", w.table, err)
	}
	w.written += len(batch)
	return nil
}

// Seek implements SKVI: it performs the entire drain eagerly so that by
// the time the tablet server returns from the scan call, the results are
// durably in the target table.
func (w *RemoteWriteIterator) Seek(rng skv.Range) error {
	if err := w.src.Seek(rng); err != nil {
		return err
	}
	w.written = 0
	fold, _ := w.src.(*FoldIterator)
	var batch []skv.Entry
	for w.src.HasTop() {
		var err error
		if fold != nil {
			err = w.flushBatch(fold.TopRun())
		} else if batch = append(batch, w.src.Top()); len(batch) >= w.batchSize {
			err = w.flushBatch(batch)
			batch = batch[:0]
		}
		if err != nil {
			return err
		}
		if err := w.src.Next(); err != nil {
			return err
		}
	}
	if err := w.flushBatch(batch); err != nil {
		return err
	}
	w.top = skv.Entry{
		K: skv.Key{Row: "~monitor", ColF: "remoteWrite", ColQ: w.table},
		V: skv.EncodeFloat(float64(w.written)),
	}
	w.has = true
	return nil
}

// HasTop implements SKVI.
func (w *RemoteWriteIterator) HasTop() bool { return w.has }

// Top implements SKVI.
func (w *RemoteWriteIterator) Top() skv.Entry { return w.top }

// Next implements SKVI.
func (w *RemoteWriteIterator) Next() error {
	w.has = false
	return nil
}

// ColQRangeIter keeps entries whose column qualifier lies in the
// half-open band [min, max) ("" disables that bound) — the
// column-qualifier half of SpRef push-down, running server-side so
// pruned entries never reach the partial-product stage or the wire.
// Dropped entries are counted through the env's Counters
// (telemetry.EntriesPrunedByRange on a cluster).
type ColQRangeIter struct {
	src      SKVI
	min, max string
	env      Env
}

// NewColQRangeIter wraps src with a column-qualifier band filter.
func NewColQRangeIter(src SKVI, min, max string, env Env) *ColQRangeIter {
	return &ColQRangeIter{src: src, min: min, max: max, env: env}
}

func (c *ColQRangeIter) admit(e skv.Entry) bool {
	if c.min != "" && e.K.ColQ < c.min {
		return false
	}
	if c.max != "" && e.K.ColQ >= c.max {
		return false
	}
	return true
}

func (c *ColQRangeIter) skip() error {
	dropped := 0
	for c.src.HasTop() && !c.admit(c.src.Top()) {
		dropped++
		if err := c.src.Next(); err != nil {
			countRangePruned(c.env, dropped)
			return err
		}
	}
	countRangePruned(c.env, dropped)
	return nil
}

// Seek implements SKVI.
func (c *ColQRangeIter) Seek(rng skv.Range) error {
	if err := c.src.Seek(rng); err != nil {
		return err
	}
	return c.skip()
}

// HasTop implements SKVI.
func (c *ColQRangeIter) HasTop() bool { return c.src.HasTop() }

// Top implements SKVI.
func (c *ColQRangeIter) Top() skv.Entry { return c.src.Top() }

// Next implements SKVI.
func (c *ColQRangeIter) Next() error {
	if err := c.src.Next(); err != nil {
		return err
	}
	return c.skip()
}

// ringOpt resolves an iterator's "semiring" option ("" = plus.times).
func ringOpt(iter, name string) (semiring.Semiring, error) {
	if name == "" {
		return semiring.PlusTimes, nil
	}
	ring, ok := semiring.ByName(name)
	if !ok {
		return ring, fmt.Errorf("%s: unknown semiring %q", iter, name)
	}
	return ring, nil
}

func init() {
	Register("remoteSource", func(_ SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["table"]
		if table == "" {
			return nil, fmt.Errorf("remoteSource: missing table option")
		}
		return NewRemoteSourceIteratorFamilies(table, DecodeFamiliesOpt(opts["families"]), env), nil
	})
	Register("twoTable", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["tableAT"]
		if table == "" {
			return nil, fmt.Errorf("twoTable: missing tableAT option")
		}
		ring, err := ringOpt("twoTable", opts["semiring"])
		if err != nil {
			return nil, err
		}
		remote := NewRemoteSourceIteratorFamilies(table, DecodeFamiliesOpt(opts["familiesAT"]), env)
		return NewTwoTableIterator(src, remote, ring), nil
	})
	Register("support", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		if opts["table"] == "" {
			return nil, fmt.Errorf("support: missing table option")
		}
		return NewSupportIterator(src, opts["table"], DecodeFamiliesOpt(opts["families"]), env), nil
	})
	Register("remoteWrite", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["table"]
		if table == "" {
			return nil, fmt.Errorf("remoteWrite: missing table option")
		}
		bs := 0
		if s := opts["batchSize"]; s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("remoteWrite: bad batchSize %q", s)
			}
			bs = v
		}
		return NewRemoteWriteIterator(src, table, bs, env), nil
	})
	Register("colRange", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		min, max := opts["minColQ"], opts["maxColQ"]
		if min == "" && max == "" {
			return nil, fmt.Errorf("colRange: need minColQ and/or maxColQ")
		}
		return NewColQRangeIter(src, min, max, env), nil
	})
}
