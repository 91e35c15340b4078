package iterator

import (
	"fmt"
	"slices"
	"strings"

	"graphulo/internal/skv"
)

// SupportIterator forms A ⊕.⊗ A ⟨A⟩ under (+, AND) — the triangle
// support of k-truss and triangle counting — for the hosted rows of a
// symmetric table A, as masked dot products. Each Seek reads A whole,
// banded to families, into interned rows. For each hosted row i it
// marks the columns stored in row i (any value: the mask is
// structural), walks A's row k for each nonzero numeric entry (i, k)
// and counts the marks met, then emits (i, "", j → count) in key order
// for each marked j with a nonzero count: each cell once and whole.
type SupportIterator struct {
	src      SKVI
	table    string
	families []string
	env      Env

	// Vertex v's nonzero columns in A are cols[rows[v][0]:rows[v][1]]; a
	// vertex first named by a hosted row (written after A was read) has none.
	names interner
	cols  []uint32
	rows  [][2]uint32

	// The hosted row's stored columns (marked) and nonzero ones (walk);
	// count[j] is 1 + the paths to j counted so far, 0 if j is unmarked.
	marked, walk []uint32
	count        []uint32
	out          []skv.Entry
	pos          int
}

// NewSupportIterator builds the support pass over src, the hosted scan
// of table, which it reads through env banded to families (nil = all).
func NewSupportIterator(src SKVI, table string, families []string, env Env) *SupportIterator {
	return &SupportIterator{src: src, table: table, families: families, env: env}
}

// Seek implements SKVI: it reads A, then seeks the hosted rows.
func (s *SupportIterator) Seek(rng skv.Range) error {
	it, err := OpenScannerFamilies(s.env, s.table, skv.FullRange(), s.families)
	if err != nil {
		return fmt.Errorf("support(%s): %w", s.table, err)
	}
	s.names.reset()
	s.cols, s.rows, s.count = s.cols[:0], s.rows[:0], s.count[:0]
	var row uint32
	for first := true; it.HasTop(); first = false {
		e := it.Top()
		if first || e.K.Row != s.names.names[row] {
			row = s.vertex(e.K.Row)
			s.rows[row] = [2]uint32{uint32(len(s.cols)), uint32(len(s.cols))}
		}
		if x, ok := skv.DecodeFloat(e.V); ok && x != 0 {
			s.cols = append(s.cols, s.vertex(e.K.ColQ))
			s.rows[row][1] = uint32(len(s.cols))
		}
		if err := it.Next(); err != nil {
			return err
		}
	}
	if err := s.src.Seek(rng); err != nil {
		return err
	}
	return s.fill()
}

// vertex interns a vertex name, giving a new vertex an empty row.
func (s *SupportIterator) vertex(name string) uint32 {
	v := s.names.id(name)
	if int(v) == len(s.rows) {
		s.rows = append(s.rows, [2]uint32{})
		s.count = append(s.count, 0)
	}
	return v
}

// fill forms the support cells of the next hosted row that has any.
func (s *SupportIterator) fill() error {
	s.out, s.pos = s.out[:0], 0
	for len(s.out) == 0 && s.src.HasTop() {
		row := s.src.Top().K.Row
		s.marked, s.walk = s.marked[:0], s.walk[:0]
		for s.src.HasTop() && s.src.Top().K.Row == row {
			e := s.src.Top()
			j := s.vertex(e.K.ColQ)
			if s.count[j] == 0 {
				s.count[j] = 1
				s.marked = append(s.marked, j)
			}
			if x, ok := skv.DecodeFloat(e.V); ok && x != 0 {
				s.walk = append(s.walk, j)
			}
			if err := s.src.Next(); err != nil {
				return err
			}
		}
		for _, k := range s.walk {
			for _, j := range s.cols[s.rows[k][0]:s.rows[k][1]] {
				if s.count[j] > 0 {
					s.count[j]++
				}
			}
		}
		// Families interleave a row's qualifiers.
		slices.SortFunc(s.marked, func(a, b uint32) int {
			return strings.Compare(s.names.names[a], s.names.names[b])
		})
		for _, j := range s.marked {
			if c := s.count[j] - 1; c > 0 {
				s.out = append(s.out, skv.Entry{K: skv.Key{Row: row, ColQ: s.names.names[j]}, V: skv.EncodeFloat(float64(c))})
			}
			s.count[j] = 0
		}
	}
	return nil
}

// HasTop implements SKVI.
func (s *SupportIterator) HasTop() bool { return s.pos < len(s.out) }

// Top implements SKVI.
func (s *SupportIterator) Top() skv.Entry { return s.out[s.pos] }

// Next implements SKVI.
func (s *SupportIterator) Next() error {
	if s.pos++; s.pos < len(s.out) {
		return nil
	}
	return s.fill()
}
