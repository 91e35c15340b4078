package iterator

import (
	"fmt"
	"strconv"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// VersioningIter keeps the newest maxVersions entries per logical cell,
// suppressing older timestamps — Accumulo's default table iterator with
// maxVersions = 1. Input order guarantees newer versions arrive first.
type VersioningIter struct {
	src         SKVI
	maxVersions int
	lastCell    skv.Key
	count       int
	started     bool
}

// NewVersioningIter wraps src.
func NewVersioningIter(src SKVI, maxVersions int) *VersioningIter {
	if maxVersions < 1 {
		maxVersions = 1
	}
	return &VersioningIter{src: src, maxVersions: maxVersions}
}

// Seek implements SKVI.
func (v *VersioningIter) Seek(rng skv.Range) error {
	v.started = false
	v.count = 0
	if err := v.src.Seek(rng); err != nil {
		return err
	}
	return v.settle()
}

// settle positions src on the next entry that survives version
// suppression and accounts for it. It must run exactly once per fresh
// source top: once after Seek and once after each source advance.
func (v *VersioningIter) settle() error {
	for v.src.HasTop() {
		k := v.src.Top().K
		if v.started && skv.SameCell(v.lastCell, k) {
			if v.count >= v.maxVersions {
				if err := v.src.Next(); err != nil {
					return err
				}
				continue
			}
			v.count++
			return nil
		}
		v.started = true
		v.lastCell = k
		v.count = 1
		return nil
	}
	return nil
}

// HasTop implements SKVI.
func (v *VersioningIter) HasTop() bool { return v.src.HasTop() }

// Top implements SKVI.
func (v *VersioningIter) Top() skv.Entry { return v.src.Top() }

// Next implements SKVI.
func (v *VersioningIter) Next() error {
	if err := v.src.Next(); err != nil {
		return err
	}
	return v.settle()
}

// FilterIter keeps entries satisfying pred.
type FilterIter struct {
	src  SKVI
	pred func(skv.Entry) bool
}

// NewFilterIter wraps src with a predicate filter.
func NewFilterIter(src SKVI, pred func(skv.Entry) bool) *FilterIter {
	return &FilterIter{src: src, pred: pred}
}

// Seek implements SKVI.
func (f *FilterIter) Seek(rng skv.Range) error {
	if err := f.src.Seek(rng); err != nil {
		return err
	}
	return f.skip()
}

func (f *FilterIter) skip() error {
	for f.src.HasTop() && !f.pred(f.src.Top()) {
		if err := f.src.Next(); err != nil {
			return err
		}
	}
	return nil
}

// HasTop implements SKVI.
func (f *FilterIter) HasTop() bool { return f.src.HasTop() }

// Top implements SKVI.
func (f *FilterIter) Top() skv.Entry { return f.src.Top() }

// Next implements SKVI.
func (f *FilterIter) Next() error {
	if err := f.src.Next(); err != nil {
		return err
	}
	return f.skip()
}

// CombinerIter collapses all versions of each logical cell into one
// entry by folding the decoded numeric values with a monoid — Accumulo's
// SummingCombiner generalised. Non-numeric values pass through the fold
// as the monoid identity. A cell with a single numeric version is
// emitted as it is, its value bytes not re-encoded.
type CombinerIter struct {
	src     SKVI
	monoid  semiring.Monoid
	ready   bool
	current skv.Entry
}

// NewCombinerIter wraps src, combining per-cell values with m.
func NewCombinerIter(src SKVI, m semiring.Monoid) *CombinerIter {
	return &CombinerIter{src: src, monoid: m}
}

// Seek implements SKVI.
func (c *CombinerIter) Seek(rng skv.Range) error {
	if err := c.src.Seek(rng); err != nil {
		return err
	}
	return c.fill()
}

func (c *CombinerIter) fill() error {
	c.ready = false
	if !c.src.HasTop() {
		return nil
	}
	first := c.src.Top()
	acc := c.monoid.Identity
	v, numeric := skv.DecodeFloat(first.V)
	if numeric {
		acc = c.monoid.Op(acc, v)
	}
	single := true
	for {
		if err := c.src.Next(); err != nil {
			return err
		}
		if !c.src.HasTop() {
			break
		}
		next := c.src.Top()
		if !skv.SameCell(next.K, first.K) {
			break
		}
		single = false
		if v, ok := skv.DecodeFloat(next.V); ok {
			acc = c.monoid.Op(acc, v)
		}
	}
	c.current = first
	if !single || !numeric {
		c.current.V = skv.EncodeFloat(acc)
	}
	c.ready = true
	return nil
}

// HasTop implements SKVI.
func (c *CombinerIter) HasTop() bool { return c.ready }

// Top implements SKVI.
func (c *CombinerIter) Top() skv.Entry { return c.current }

// Next implements SKVI.
func (c *CombinerIter) Next() error { return c.fill() }

// ApplyIter transforms each numeric value with a unary op, dropping
// entries whose result is 0 — the GraphBLAS Apply kernel as a
// server-side iterator.
type ApplyIter struct {
	src SKVI
	op  semiring.UnaryOp
	cur skv.Entry
	has bool
}

// NewApplyIter wraps src with op.
func NewApplyIter(src SKVI, op semiring.UnaryOp) *ApplyIter {
	return &ApplyIter{src: src, op: op}
}

// Seek implements SKVI.
func (a *ApplyIter) Seek(rng skv.Range) error {
	if err := a.src.Seek(rng); err != nil {
		return err
	}
	return a.fill()
}

func (a *ApplyIter) fill() error {
	a.has = false
	for a.src.HasTop() {
		e := a.src.Top()
		if v, ok := skv.DecodeFloat(e.V); ok {
			out := a.op(v)
			if out != 0 {
				a.cur = skv.Entry{K: e.K, V: skv.EncodeFloat(out)}
				a.has = true
				return nil
			}
		}
		if err := a.src.Next(); err != nil {
			return err
		}
	}
	return nil
}

// HasTop implements SKVI.
func (a *ApplyIter) HasTop() bool { return a.has }

// Top implements SKVI.
func (a *ApplyIter) Top() skv.Entry { return a.cur }

// Next implements SKVI.
func (a *ApplyIter) Next() error {
	if err := a.src.Next(); err != nil {
		return err
	}
	return a.fill()
}

// ColumnFilterIter keeps entries whose column family is in the allowed
// set (empty set admits everything).
func NewColumnFilterIter(src SKVI, families ...string) *FilterIter {
	if len(families) == 0 {
		return NewFilterIter(src, func(skv.Entry) bool { return true })
	}
	set := make(map[string]bool, len(families))
	for _, f := range families {
		set[f] = true
	}
	return NewFilterIter(src, func(e skv.Entry) bool { return set[e.K.ColF] })
}

// RowReduceIter folds every entry of each row into a single output
// entry (row, colF, colQ = opts) using a monoid — the server-side form
// of the GraphBLAS row-Reduce kernel. Degree tables are built by
// scanning an adjacency table through this iterator.
type RowReduceIter struct {
	src    SKVI
	monoid semiring.Monoid
	colF   string
	colQ   string

	ready   bool
	current skv.Entry
}

// NewRowReduceIter wraps src; outputs land in column (colF, colQ).
func NewRowReduceIter(src SKVI, m semiring.Monoid, colF, colQ string) *RowReduceIter {
	return &RowReduceIter{src: src, monoid: m, colF: colF, colQ: colQ}
}

// Seek implements SKVI.
func (r *RowReduceIter) Seek(rng skv.Range) error {
	if err := r.src.Seek(rng); err != nil {
		return err
	}
	return r.fill()
}

func (r *RowReduceIter) fill() error {
	r.ready = false
	if !r.src.HasTop() {
		return nil
	}
	row := r.src.Top().K.Row
	acc := r.monoid.Identity
	for r.src.HasTop() && r.src.Top().K.Row == row {
		if v, ok := skv.DecodeFloat(r.src.Top().V); ok {
			acc = r.monoid.Op(acc, v)
		}
		if err := r.src.Next(); err != nil {
			return err
		}
	}
	r.current = skv.Entry{
		K: skv.Key{Row: row, ColF: r.colF, ColQ: r.colQ},
		V: skv.EncodeFloat(acc),
	}
	r.ready = true
	return nil
}

// HasTop implements SKVI.
func (r *RowReduceIter) HasTop() bool { return r.ready }

// Top implements SKVI.
func (r *RowReduceIter) Top() skv.Entry { return r.current }

// Next implements SKVI.
func (r *RowReduceIter) Next() error { return r.fill() }

// --- registered factories for the standard stack ---

// combiners are the registered iterators that fold a cell's versions
// with a monoid: the ⊕ of a result table.
var combiners = map[string]semiring.Monoid{
	"sum": semiring.PlusMonoid,
	"min": semiring.MinMonoid,
	"max": semiring.MaxMonoid,
}

// IsCombiner reports whether name is a combiner iterator.
func IsCombiner(name string) bool {
	_, ok := combiners[name]
	return ok
}

func init() {
	Register("versioning", func(src SKVI, opts map[string]string, _ Env) (SKVI, error) {
		n := 1
		if s, ok := opts["maxVersions"]; ok {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("versioning: bad maxVersions %q", s)
			}
			n = v
		}
		return NewVersioningIter(src, n), nil
	})
	for name, m := range combiners {
		Register(name, func(src SKVI, _ map[string]string, _ Env) (SKVI, error) {
			return NewCombinerIter(src, m), nil
		})
	}
	Register("rowReduce", func(src SKVI, opts map[string]string, _ Env) (SKVI, error) {
		m := semiring.PlusMonoid
		switch opts["monoid"] {
		case "", "plus":
		case "min":
			m = semiring.MinMonoid
		case "max":
			m = semiring.MaxMonoid
		default:
			return nil, fmt.Errorf("rowReduce: unknown monoid %q", opts["monoid"])
		}
		return NewRowReduceIter(src, m, opts["colF"], opts["colQ"]), nil
	})
	Register("scale", func(src SKVI, opts map[string]string, _ Env) (SKVI, error) {
		c, err := strconv.ParseFloat(opts["factor"], 64)
		if err != nil {
			return nil, fmt.Errorf("scale: bad factor %q", opts["factor"])
		}
		return NewApplyIter(src, semiring.ScaleBy(c)), nil
	})
	Register("threshold", func(src SKVI, opts map[string]string, _ Env) (SKVI, error) {
		t, err := strconv.ParseFloat(opts["min"], 64)
		if err != nil {
			return nil, fmt.Errorf("threshold: bad min %q", opts["min"])
		}
		return NewApplyIter(src, semiring.ThresholdBelow(t)), nil
	})
	Register("equalsIndicator", func(src SKVI, opts map[string]string, _ Env) (SKVI, error) {
		t, err := strconv.ParseFloat(opts["target"], 64)
		if err != nil {
			return nil, fmt.Errorf("equalsIndicator: bad target %q", opts["target"])
		}
		return NewApplyIter(src, semiring.EqualsIndicator(t)), nil
	})
}
