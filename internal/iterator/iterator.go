// Package iterator implements the server-side iterator framework — the
// Accumulo mechanism Graphulo uses to run GraphBLAS kernels inside the
// database. A SortedKeyValueIterator (SKVI) consumes a sorted entry
// stream and produces a sorted entry stream; stacks of them are attached
// to tables at scan, minor-compaction, and major-compaction scopes, or
// supplied per-scan.
//
// The package provides the standard stack (versioning, filters,
// combiners, apply) plus the Graphulo iterators: RemoteSourceIterator,
// TwoTableIterator (the server-side SpGEMM core), FoldIterator (the
// bounded ⊕-fold stage below a multiply's sink), and
// RemoteWriteIterator.
package iterator

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"graphulo/internal/skv"
)

// SKVI is a sorted key-value iterator. Implementations must return
// entries in strictly non-decreasing key order between Seek calls.
type SKVI interface {
	// Seek positions the iterator at the first entry within rng.
	Seek(rng skv.Range) error
	// HasTop reports whether a current entry exists.
	HasTop() bool
	// Top returns the current entry; only valid when HasTop.
	Top() skv.Entry
	// Next advances to the following entry.
	Next() error
}

// Env gives server-side iterators controlled access to the rest of the
// cluster: opening scanners against other tables (RemoteSource) and
// writing result entries (RemoteWrite). The accumulo package implements
// it; tests may use fakes.
type Env interface {
	// OpenScanner returns a sorted iterator over another table's range,
	// with that table's scan-scope stack applied.
	OpenScanner(table string, rng skv.Range) (SKVI, error)
	// WriteEntries ingests entries into another table through the normal
	// write path (so the target table's combiners apply).
	WriteEntries(table string, entries []skv.Entry) error
}

// FamilyEnv is optionally implemented by Envs that can push a
// column-family constraint down to the scanned table's storage (the
// accumulo scanEnv rides it on the nested scan request, so the serving
// tablets read only the matching locality groups).
type FamilyEnv interface {
	// OpenScannerFamilies is Env.OpenScanner constrained to a
	// column-family set (empty = unconstrained).
	OpenScannerFamilies(table string, rng skv.Range, families []string) (SKVI, error)
}

// OpenScannerFamilies opens a family-constrained scanner through env,
// pushing the constraint down when env supports it and falling back to
// a client-side per-entry family filter when it does not — the result
// stream is identical either way, only the blocks read differ.
func OpenScannerFamilies(env Env, table string, rng skv.Range, families []string) (SKVI, error) {
	if len(families) == 0 {
		return env.OpenScanner(table, rng)
	}
	if fe, ok := env.(FamilyEnv); ok {
		return fe.OpenScannerFamilies(table, rng, families)
	}
	src, err := env.OpenScanner(table, rng)
	if err != nil {
		return nil, err
	}
	return NewColumnFilterIter(src, families...), nil
}

// EncodeFamiliesOpt packs a family band into one iterator-setting option
// value (comma-joined — family names must not contain commas; ours are
// short channel labels). An empty band encodes as "", which
// DecodeFamiliesOpt reads back as unconstrained — so a band consisting
// of only the unnamed family "" degrades to an unconstrained scan, which
// is correct, just unpruned.
func EncodeFamiliesOpt(families []string) string {
	return strings.Join(families, ",")
}

// DecodeFamiliesOpt unpacks EncodeFamiliesOpt's value; "" → nil.
func DecodeFamiliesOpt(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// Counters is optionally implemented by Envs that surface kernel
// counters (the accumulo scanEnv forwards them to cluster metrics).
// Iterators type-assert and skip counting when the env does not
// implement it, so test fakes need not.
type Counters interface {
	// CountRangePruned records entries dropped by a server-side range
	// filter (e.g. the colRange column-qualifier band).
	CountRangePruned(n int)
	// CountFolded records partial products absorbed by the fold stage
	// instead of reaching the sink.
	CountFolded(n int)
}

// countRangePruned/countFolded forward to the env's Counters when
// implemented.
func countRangePruned(env Env, n int) {
	if c, ok := env.(Counters); ok && n > 0 {
		c.CountRangePruned(n)
	}
}

func countFolded(env Env, n int) {
	if c, ok := env.(Counters); ok && n > 0 {
		c.CountFolded(n)
	}
}

// Factory constructs a configured iterator over a source. opts carries
// the per-instance configuration an IteratorSetting would in Accumulo.
type Factory func(src SKVI, opts map[string]string, env Env) (SKVI, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register makes a named iterator available for attachment to tables and
// scans. It panics on duplicate names — configuring two different
// iterators under one name is a deployment error.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("iterator: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("iterator: %q is not registered", name)
	}
	return f, nil
}

// Setting names a registered iterator plus its options, in priority
// order position within a stack (lower priority runs closer to the data).
type Setting struct {
	Name     string
	Priority int
	Opts     map[string]string
}

// BuildStack layers the settings (sorted by priority) on top of src.
func BuildStack(src SKVI, settings []Setting, env Env) (SKVI, error) {
	ordered := append([]Setting(nil), settings...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Priority < ordered[j].Priority })
	cur := src
	for _, s := range ordered {
		f, err := Lookup(s.Name)
		if err != nil {
			return nil, err
		}
		cur, err = f(cur, s.Opts, env)
		if err != nil {
			return nil, fmt.Errorf("iterator: building %q: %w", s.Name, err)
		}
	}
	return cur, nil
}

// --- basic sources and sinks ---

// SliceIter iterates over an in-memory sorted slice of entries. The
// slice must already be sorted by skv.Compare; NewSliceIter verifies in
// debug form by sorting a copy if needed.
type SliceIter struct {
	entries []skv.Entry
	rng     skv.Range
	pos     int
}

// NewSliceIter returns an iterator over entries, sorting them if needed.
func NewSliceIter(entries []skv.Entry) *SliceIter {
	sorted := true
	for i := 0; i+1 < len(entries); i++ {
		if skv.Compare(entries[i].K, entries[i+1].K) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		entries = append([]skv.Entry(nil), entries...)
		sort.Slice(entries, func(i, j int) bool { return skv.Compare(entries[i].K, entries[j].K) < 0 })
	}
	return &SliceIter{entries: entries}
}

// Seek implements SKVI.
func (it *SliceIter) Seek(rng skv.Range) error {
	it.rng = rng
	if !rng.HasStart {
		it.pos = 0
		return nil
	}
	it.pos = sort.Search(len(it.entries), func(i int) bool {
		return skv.Compare(it.entries[i].K, rng.Start) >= 0
	})
	return nil
}

// HasTop implements SKVI.
func (it *SliceIter) HasTop() bool {
	return it.pos < len(it.entries) && !it.rng.AfterEnd(it.entries[it.pos].K)
}

// Top implements SKVI.
func (it *SliceIter) Top() skv.Entry { return it.entries[it.pos] }

// Next implements SKVI.
func (it *SliceIter) Next() error {
	it.pos++
	return nil
}

// Collect drains an iterator (after the caller has Seeked it) into a
// slice. It is the standard test/client helper.
func Collect(it SKVI) ([]skv.Entry, error) { return AppendAll(nil, it) }

// AppendAll is Collect appending to dst, for a caller that knows about
// how many entries to expect and sizes dst for them.
func AppendAll(dst []skv.Entry, it SKVI) ([]skv.Entry, error) {
	for it.HasTop() {
		dst = append(dst, it.Top())
		if err := it.Next(); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// MergeIter is a k-way merge over sorted sources — the read path over
// one memtable plus many immutable runs, and the merge under every
// flush and compaction. It keeps each source's current top entry in
// tops, filled once at Seek and once after each advance of that
// source and nowhere else, so a heap compare reads two cached keys in
// place instead of calling Top through the interface; an entry a
// source returned must therefore stay unchanged until that source's
// own Next, as the SKVI contract implies. In dedup mode, entries whose
// full key (timestamp included) collides across sources are resolved
// in favour of the earliest-listed source, so callers list sources
// from newest (memtable) to oldest (first run), matching LSM
// semantics. Next past the end is a no-op, as on every other SKVI.
type MergeIter struct {
	sources []SKVI
	tops    []skv.Entry // tops[i] is sources[i]'s top while i is in heap
	heap    []int       // indices of sources with tops, heap-ordered by top key

	dedup bool
}

// NewMergeIter merges the given sorted sources, keeping duplicates.
func NewMergeIter(sources ...SKVI) *MergeIter {
	return &MergeIter{sources: sources, tops: make([]skv.Entry, len(sources))}
}

// NewDedupMergeIter merges sources, collapsing exact full-key duplicates
// in favour of the earliest-listed source.
func NewDedupMergeIter(sources ...SKVI) *MergeIter {
	m := NewMergeIter(sources...)
	m.dedup = true
	return m
}

// Seek implements SKVI.
func (m *MergeIter) Seek(rng skv.Range) error {
	m.heap = m.heap[:0]
	for i, s := range m.sources {
		if err := s.Seek(rng); err != nil {
			return err
		}
		if s.HasTop() {
			m.tops[i] = s.Top()
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return nil
}

// less orders sources a and b by their cached tops (skv.Compare's order,
// field by field in place); equal keys prefer the earlier-listed
// (newer) source.
func (m *MergeIter) less(a, b int) bool {
	ka, kb := &m.tops[a].K, &m.tops[b].K
	if ka.Row != kb.Row {
		return ka.Row < kb.Row
	}
	if ka.ColF != kb.ColF {
		return ka.ColF < kb.ColF
	}
	if ka.ColQ != kb.ColQ {
		return ka.ColQ < kb.ColQ
	}
	if ka.Ts != kb.Ts {
		return ka.Ts > kb.Ts // newer sorts first
	}
	return a < b
}

// siftDown restores the heap below position i, moving the displaced
// source index down through a hole rather than swapping at each level.
func (m *MergeIter) siftDown(i int) {
	h := m.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && m.less(h[r], h[c]) {
			c = r
		}
		if !m.less(h[c], x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// HasTop implements SKVI.
func (m *MergeIter) HasTop() bool { return len(m.heap) > 0 }

// Top implements SKVI.
func (m *MergeIter) Top() skv.Entry { return m.tops[m.heap[0]] }

// Next implements SKVI.
func (m *MergeIter) Next() error {
	if len(m.heap) == 0 {
		return nil
	}
	if !m.dedup {
		return m.advance()
	}
	last := m.tops[m.heap[0]].K
	if err := m.advance(); err != nil {
		return err
	}
	for len(m.heap) > 0 && m.tops[m.heap[0]].K == last {
		if err := m.advance(); err != nil {
			return err
		}
	}
	return nil
}

// advance moves the heap-top source forward one entry, refills its
// cached top and restores the heap.
func (m *MergeIter) advance() error {
	i := m.heap[0]
	src := m.sources[i]
	if err := src.Next(); err != nil {
		return err
	}
	if src.HasTop() {
		m.tops[i] = src.Top()
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	if len(m.heap) > 0 {
		m.siftDown(0)
	}
	return nil
}
