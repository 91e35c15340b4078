// Package assoc implements associative arrays, the base data type of
// NoSQL tables in the paper's §II: a map from pairs of string keys to a
// semiring value set, A : K₁ × K₂ → V, with finite support.
//
// An associative array is a sparse matrix whose rows and columns carry
// global string labels. Addition of two arrays is a union of their keys
// (colliding values combine with ⊕); multiplication is a correlation
// (inner dimension aligned by key). Arrays are immutable: every
// operation returns a new array.
package assoc

import (
	"fmt"
	"sort"
	"strings"

	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// Entry is one (row key, column key, value) triple.
type Entry struct {
	Row, Col string
	Val      float64
}

// Assoc is an associative array: a sparse matrix with sorted string row
// and column labels. The zero value is not usable; use New.
type Assoc struct {
	rows []string // sorted, unique
	cols []string // sorted, unique
	mat  *sparse.Matrix
	ring semiring.Semiring
}

// New builds an associative array from entries over the given semiring.
// Duplicate (row, col) keys combine with ⊕; values equal to the semiring
// zero are dropped. Row and column key sets are exactly the keys that
// appear (associative arrays have no empty rows or columns, per §II.A).
func New(entries []Entry, ring semiring.Semiring) *Assoc {
	rowSet := make(map[string]bool)
	colSet := make(map[string]bool)
	for _, e := range entries {
		rowSet[e.Row] = true
		colSet[e.Col] = true
	}
	rows := sortedKeys(rowSet)
	cols := sortedKeys(colSet)
	rowIdx := indexOf(rows)
	colIdx := indexOf(cols)
	ts := make([]sparse.Triple, len(entries))
	for i, e := range entries {
		ts[i] = sparse.Triple{Row: rowIdx[e.Row], Col: colIdx[e.Col], Val: e.Val}
	}
	a := &Assoc{rows: rows, cols: cols, ring: ring,
		mat: sparse.NewFromTriples(len(rows), len(cols), ts, ring)}
	return a.condense()
}

// FromMatrix wraps a sparse matrix with explicit labels. len(rows) and
// len(cols) must match the matrix shape.
func FromMatrix(m *sparse.Matrix, rows, cols []string, ring semiring.Semiring) *Assoc {
	if len(rows) != m.Rows() || len(cols) != m.Cols() {
		panic(fmt.Sprintf("assoc: labels %d×%d do not match matrix %d×%d",
			len(rows), len(cols), m.Rows(), m.Cols()))
	}
	if !sort.StringsAreSorted(rows) || !sort.StringsAreSorted(cols) {
		panic("assoc: labels must be sorted")
	}
	a := &Assoc{rows: append([]string(nil), rows...), cols: append([]string(nil), cols...),
		mat: m.Clone(), ring: ring}
	return a.condense()
}

// condense removes empty rows and columns so the key sets are exactly
// the support, matching the associative-array definition.
func (a *Assoc) condense() *Assoc {
	rowNNZ := make([]bool, len(a.rows))
	colNNZ := make([]bool, len(a.cols))
	for _, t := range a.mat.Triples() {
		rowNNZ[t.Row] = true
		colNNZ[t.Col] = true
	}
	var keepR, keepC []int
	var newRows, newCols []string
	for i, ok := range rowNNZ {
		if ok {
			keepR = append(keepR, i)
			newRows = append(newRows, a.rows[i])
		}
	}
	for j, ok := range colNNZ {
		if ok {
			keepC = append(keepC, j)
			newCols = append(newCols, a.cols[j])
		}
	}
	if len(keepR) == len(a.rows) && len(keepC) == len(a.cols) {
		return a
	}
	a.mat = sparse.SpRef(a.mat, keepR, keepC)
	a.rows, a.cols = newRows, newCols
	return a
}

// Rows returns the sorted row keys.
func (a *Assoc) Rows() []string { return append([]string(nil), a.rows...) }

// Cols returns the sorted column keys.
func (a *Assoc) Cols() []string { return append([]string(nil), a.cols...) }

// NNZ returns the number of stored entries.
func (a *Assoc) NNZ() int { return a.mat.NNZ() }

// Matrix returns the underlying sparse matrix together with the label
// slices. The returned matrix is a copy and safe to modify.
func (a *Assoc) Matrix() (*sparse.Matrix, []string, []string) {
	return a.mat.Clone(), a.Rows(), a.Cols()
}

// At returns the value at (row, col), or the semiring zero when the keys
// are absent.
func (a *Assoc) At(row, col string) float64 {
	i, ok := findKey(a.rows, row)
	if !ok {
		return a.ring.Zero
	}
	j, ok := findKey(a.cols, col)
	if !ok {
		return a.ring.Zero
	}
	v, stored := a.mat.Get(i, j)
	if !stored {
		return a.ring.Zero
	}
	return v
}

// Entries returns all stored entries in row-major key order.
func (a *Assoc) Entries() []Entry {
	ts := a.mat.Triples()
	out := make([]Entry, len(ts))
	for i, t := range ts {
		out[i] = Entry{Row: a.rows[t.Row], Col: a.cols[t.Col], Val: t.Val}
	}
	return out
}

// Add returns A ⊕ B: the union of the two arrays' keys, with values on
// common keys combined by ⊕ (§II.A: "summation ... performs a union").
func Add(a, b *Assoc) *Assoc {
	entries := append(a.Entries(), b.Entries()...)
	return New(entries, a.ring)
}

// Multiply returns the correlation A ⊕.⊗ B: standard matrix multiply
// with the inner dimension aligned on the key intersection of A's
// columns and B's rows.
func Multiply(a, b *Assoc) *Assoc {
	inner := unionKeys(a.cols, b.rows)
	am := remapCols(a, inner)
	bm := remapRows(b, inner)
	prod := sparse.SpGEMM(am, bm, a.ring)
	return FromMatrix(prod, a.rows, b.cols, a.ring)
}

// Transpose returns Aᵀ.
func (a *Assoc) Transpose() *Assoc {
	return FromMatrix(sparse.Transpose(a.mat), a.cols, a.rows, a.ring)
}

// Apply maps f over stored values, dropping zeros.
func (a *Assoc) Apply(f semiring.UnaryOp) *Assoc {
	return FromMatrix(sparse.Apply(a.mat, f), a.rows, a.cols, a.ring)
}

// Scale multiplies every stored value by s.
func (a *Assoc) Scale(s float64) *Assoc { return a.Apply(semiring.ScaleBy(s)) }

// SubRef extracts the sub-array with row keys in rowSel and column keys
// in colSel (nil selects all). Unknown keys are ignored.
func (a *Assoc) SubRef(rowSel, colSel []string) *Assoc {
	rows := selectKeys(a.rows, rowSel)
	cols := selectKeys(a.cols, colSel)
	var ri, ci []int
	var rk, ck []string
	for _, r := range rows {
		i, _ := findKey(a.rows, r)
		ri = append(ri, i)
		rk = append(rk, r)
	}
	for _, c := range cols {
		j, _ := findKey(a.cols, c)
		ci = append(ci, j)
		ck = append(ck, c)
	}
	return FromMatrix(sparse.SpRef(a.mat, ri, ci), rk, ck, a.ring)
}

// ReduceRows folds each row with the monoid, returning rowKey → value.
func (a *Assoc) ReduceRows(m semiring.Monoid) map[string]float64 {
	v := sparse.ReduceRows(a.mat, m)
	out := make(map[string]float64, len(a.rows))
	for i, r := range a.rows {
		out[r] = v[i]
	}
	return out
}

// ReduceCols folds each column with the monoid, returning colKey → value.
func (a *Assoc) ReduceCols(m semiring.Monoid) map[string]float64 {
	v := sparse.ReduceCols(a.mat, m)
	out := make(map[string]float64, len(a.cols))
	for j, c := range a.cols {
		out[c] = v[j]
	}
	return out
}

// Equal reports whether two arrays have identical keys and values.
func Equal(a, b *Assoc) bool {
	if len(a.rows) != len(b.rows) || len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.rows {
		if a.rows[i] != b.rows[i] {
			return false
		}
	}
	for j := range a.cols {
		if a.cols[j] != b.cols[j] {
			return false
		}
	}
	return sparse.Equal(a.mat, b.mat)
}

// String renders the array as an aligned table (small arrays only).
func (a *Assoc) String() string {
	if len(a.rows) > 20 || len(a.cols) > 20 {
		return fmt.Sprintf("assoc.Assoc %d×%d, %d nnz", len(a.rows), len(a.cols), a.NNZ())
	}
	var b strings.Builder
	w := 8
	fmt.Fprintf(&b, "%*s", w, "")
	for _, c := range a.cols {
		fmt.Fprintf(&b, " %*s", w, trunc(c, w))
	}
	b.WriteByte('\n')
	d := a.mat.Dense()
	for i, r := range a.rows {
		fmt.Fprintf(&b, "%*s", w, trunc(r, w))
		for j := range a.cols {
			if d[i][j] == 0 {
				fmt.Fprintf(&b, " %*s", w, "")
			} else {
				fmt.Fprintf(&b, " %*.4g", w, d[i][j])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// --- helpers ---

func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n-1] + "…"
	}
	return s
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func indexOf(keys []string) map[string]int {
	m := make(map[string]int, len(keys))
	for i, k := range keys {
		m[k] = i
	}
	return m
}

func findKey(keys []string, k string) (int, bool) {
	i := sort.SearchStrings(keys, k)
	if i < len(keys) && keys[i] == k {
		return i, true
	}
	return 0, false
}

func unionKeys(a, b []string) []string {
	set := make(map[string]bool, len(a)+len(b))
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		set[k] = true
	}
	return sortedKeys(set)
}

// selectKeys returns the members of keys present in sel (nil = all),
// in sorted order.
func selectKeys(keys, sel []string) []string {
	if sel == nil {
		return append([]string(nil), keys...)
	}
	var out []string
	for _, s := range sel {
		if _, ok := findKey(keys, s); ok {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	// dedupe
	var ded []string
	for i, s := range out {
		if i == 0 || out[i-1] != s {
			ded = append(ded, s)
		}
	}
	return ded
}

// remapCols re-labels only the column space, keeping a's rows.
func remapCols(a *Assoc, cols []string) *sparse.Matrix {
	ci := indexOf(cols)
	var ts []sparse.Triple
	ri := indexOf(a.rows)
	for _, e := range a.Entries() {
		if j, ok := ci[e.Col]; ok {
			ts = append(ts, sparse.Triple{Row: ri[e.Row], Col: j, Val: e.Val})
		}
	}
	return sparse.NewFromTriples(len(a.rows), len(cols), ts, a.ring)
}

// remapRows re-labels only the row space, keeping a's cols.
func remapRows(a *Assoc, rows []string) *sparse.Matrix {
	ri := indexOf(rows)
	var ts []sparse.Triple
	ci := indexOf(a.cols)
	for _, e := range a.Entries() {
		if i, ok := ri[e.Row]; ok {
			ts = append(ts, sparse.Triple{Row: i, Col: ci[e.Col], Val: e.Val})
		}
	}
	return sparse.NewFromTriples(len(rows), len(a.cols), ts, a.ring)
}
