package iterator

import "graphulo/internal/skv"

// SpAsgnIter remaps the stream into a destination sub-array: every row
// key gains rowOffset as a prefix and every column qualifier gains
// colOffset — the assignment dual of the SpRef range push-down, C(i+p,
// j+q) = A(i, j) for string keys. Seek passes through untouched: the
// scan range addresses the *source* coordinates, so a stage above the
// remap that re-seeks would seek the wrong keys. The planner therefore
// refuses any stage over a spAsgn; only the sink sits above it.
type SpAsgnIter struct {
	src       SKVI
	rowOffset string
	colOffset string
}

// NewSpAsgnIter wraps src with the offset remap.
func NewSpAsgnIter(src SKVI, rowOffset, colOffset string) *SpAsgnIter {
	return &SpAsgnIter{src: src, rowOffset: rowOffset, colOffset: colOffset}
}

// Seek implements SKVI.
func (s *SpAsgnIter) Seek(rng skv.Range) error { return s.src.Seek(rng) }

// HasTop implements SKVI.
func (s *SpAsgnIter) HasTop() bool { return s.src.HasTop() }

// Top implements SKVI.
func (s *SpAsgnIter) Top() skv.Entry {
	e := s.src.Top()
	e.K.Row = s.rowOffset + e.K.Row
	e.K.ColQ = s.colOffset + e.K.ColQ
	return e
}

// Next implements SKVI.
func (s *SpAsgnIter) Next() error { return s.src.Next() }

func init() {
	Register("spAsgn", func(src SKVI, opts map[string]string, _ Env) (SKVI, error) {
		return NewSpAsgnIter(src, opts["rowOffset"], opts["colOffset"]), nil
	})
}
