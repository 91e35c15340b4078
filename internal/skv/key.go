// Package skv defines the sorted key-value data model of the embedded
// NoSQL store: Accumulo-style keys (row, column family, column
// qualifier, timestamp), values, entries, ranges, and the wire codec the
// thin client speaks.
//
// Keys sort lexicographically by row, then column family, then column
// qualifier, and finally by timestamp descending (newest first), exactly
// as Accumulo sorts them. A NoSQL table is therefore a sparse matrix
// whose row key is the matrix row label and whose column qualifier is
// the column label — the structural parallel the paper builds on.
package skv

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// MaxTs is the largest timestamp; because timestamps sort descending,
// Key{Row: r, Ts: MaxTs} is the smallest possible key with row r.
const MaxTs int64 = math.MaxInt64

// Key identifies one cell.
type Key struct {
	Row  string // matrix row label
	ColF string // column family (schema channel, e.g. "deg", "edge")
	ColQ string // column qualifier (matrix column label)
	Ts   int64  // version timestamp; larger is newer
}

// Value is the cell payload.
type Value []byte

// Entry is one key-value pair.
type Entry struct {
	K Key
	V Value
}

// Compare orders keys: row asc, colF asc, colQ asc, ts desc.
// Returns -1, 0, or +1.
func Compare(a, b Key) int {
	if c := strings.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	if c := strings.Compare(a.ColF, b.ColF); c != 0 {
		return c
	}
	if c := strings.Compare(a.ColQ, b.ColQ); c != 0 {
		return c
	}
	switch { // descending timestamp: newer sorts first
	case a.Ts > b.Ts:
		return -1
	case a.Ts < b.Ts:
		return 1
	}
	return 0
}

// SameCell reports whether two keys address the same logical cell,
// ignoring the timestamp.
func SameCell(a, b Key) bool {
	return a.Row == b.Row && a.ColF == b.ColF && a.ColQ == b.ColQ
}

// String renders the key in Accumulo shell style.
func (k Key) String() string {
	return fmt.Sprintf("%s %s:%s [%d]", k.Row, k.ColF, k.ColQ, k.Ts)
}

// Range is a half-open key interval [Start, End). A missing bound
// (HasStart/HasEnd false) is infinite on that side.
type Range struct {
	Start    Key
	HasStart bool
	End      Key
	HasEnd   bool
}

// FullRange covers every key.
func FullRange() Range { return Range{} }

// RowRange covers rows in [startRow, endRow); empty bounds are
// infinite. endRow is exclusive at the row level.
func RowRange(startRow, endRow string) Range {
	r := Range{}
	if startRow != "" {
		r.Start = Key{Row: startRow, Ts: MaxTs}
		r.HasStart = true
	}
	if endRow != "" {
		r.End = Key{Row: endRow, Ts: MaxTs}
		r.HasEnd = true
	}
	return r
}

// ExactRow covers exactly one row.
func ExactRow(row string) Range {
	return Range{
		Start:    Key{Row: row, Ts: MaxTs},
		HasStart: true,
		End:      Key{Row: row + "\x00", Ts: MaxTs},
		HasEnd:   true,
	}
}

// ExactCell covers exactly one cell — every timestamped version of one
// (row, colF, colQ). Cell-confined seeks are answered by the rfile
// (row, colQ) bloom filter without loading a block when the file cannot
// contain the pair.
func ExactCell(row, colF, colQ string) Range {
	return Range{
		Start:    Key{Row: row, ColF: colF, ColQ: colQ, Ts: MaxTs},
		HasStart: true,
		End:      Key{Row: row, ColF: colF, ColQ: colQ + "\x00", Ts: MaxTs},
		HasEnd:   true,
	}
}

// BeforeStart reports k < Start.
func (r Range) BeforeStart(k Key) bool {
	return r.HasStart && Compare(k, r.Start) < 0
}

// AfterEnd reports k >= End.
func (r Range) AfterEnd(k Key) bool {
	return r.HasEnd && Compare(k, r.End) >= 0
}

// Contains reports Start <= k < End.
func (r Range) Contains(k Key) bool {
	return !r.BeforeStart(k) && !r.AfterEnd(k)
}

// Clip intersects two ranges.
func (r Range) Clip(o Range) Range {
	out := r
	if o.HasStart && (!out.HasStart || Compare(o.Start, out.Start) > 0) {
		out.Start, out.HasStart = o.Start, true
	}
	if o.HasEnd && (!out.HasEnd || Compare(o.End, out.End) < 0) {
		out.End, out.HasEnd = o.End, true
	}
	return out
}

// IsEmpty reports whether the range can contain no key.
func (r Range) IsEmpty() bool {
	return r.HasStart && r.HasEnd && Compare(r.Start, r.End) >= 0
}

// RowBand widens r to whole-row bounds: the result covers every complete
// row that r touches. Kernels that align tables on row keys (the
// TwoTableIterator's inner dimension) use it to seed their remote
// operand scan with exactly the rows the hosted range can produce.
func (r Range) RowBand() Range {
	out := Range{}
	if r.HasStart {
		out.Start = Key{Row: r.Start.Row, Ts: MaxTs}
		out.HasStart = true
	}
	if r.HasEnd {
		if r.End.ColF == "" && r.End.ColQ == "" && r.End.Ts == MaxTs {
			// Already a row boundary: row End.Row is excluded entirely.
			out.End = Key{Row: r.End.Row, Ts: MaxTs}
		} else {
			// The end cuts row End.Row mid-row; the band must include the
			// whole row.
			out.End = Key{Row: r.End.Row + "\x00", Ts: MaxTs}
		}
		out.HasEnd = true
	}
	return out
}

// CoalesceRanges sorts ranges by start and merges overlapping (and
// empty-gap) neighbours, returning a minimal sorted cover of the same
// key set. Scans over several ranges rely on the result being sorted
// and disjoint so their output stays globally ordered.
func CoalesceRanges(ranges []Range) []Range {
	var live []Range
	for _, r := range ranges {
		if !r.IsEmpty() {
			live = append(live, r)
		}
	}
	if len(live) <= 1 {
		return live
	}
	sort.SliceStable(live, func(i, j int) bool {
		a, b := live[i], live[j]
		switch {
		case !a.HasStart:
			return b.HasStart
		case !b.HasStart:
			return false
		default:
			return Compare(a.Start, b.Start) < 0
		}
	})
	out := live[:1]
	for _, r := range live[1:] {
		cur := &out[len(out)-1]
		if !cur.HasEnd || (r.HasStart && Compare(r.Start, cur.End) > 0) {
			if !cur.HasEnd {
				return out // an unbounded end swallows everything after it
			}
			out = append(out, r)
			continue
		}
		// Overlapping or touching: extend the current range.
		if !r.HasEnd || Compare(r.End, cur.End) > 0 {
			cur.End, cur.HasEnd = r.End, r.HasEnd
		}
	}
	return out
}

// String renders the range for diagnostics.
func (r Range) String() string {
	s, e := "-inf", "+inf"
	if r.HasStart {
		s = r.Start.String()
	}
	if r.HasEnd {
		e = r.End.String()
	}
	return fmt.Sprintf("[%s, %s)", s, e)
}

// EncodeFloat encodes a float64 value as a human-readable decimal
// string, the convention D4M-style schemas use for numeric cells.
func EncodeFloat(v float64) Value {
	return AppendFloat(nil, v)
}

// AppendFloat appends EncodeFloat's text for v to dst, for callers that
// format many values into one buffer.
func AppendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// DecodeFloat parses a numeric cell value. Invalid or empty payloads
// decode as 0 with ok=false.
func DecodeFloat(v Value) (float64, bool) {
	f, err := strconv.ParseFloat(string(v), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}
