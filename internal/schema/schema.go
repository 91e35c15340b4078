// Package schema implements the paper's §II.B graph schemas on NoSQL
// tables: the adjacency-matrix schema (an undirected graph's adjacency
// table, which is its own transpose, plus a degree table) and the D4M
// 2.0 four-table schema (Tedge, TedgeT, Tdeg, Traw) with exploded
// column keys, whose record×field matrix is not square and so keeps its
// transpose.
package schema

import (
	"fmt"
	"sort"
	"strconv"

	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// Column families name the schema channels, so the storage layer can
// place each channel in its own rfile locality group (format v4) and a
// scan over one channel skips the others' blocks entirely.
const (
	// EdgeFamily holds adjacency (and D4M Tedge) matrix entries.
	EdgeFamily = "edge"
	// DegFamily holds degree (and other per-row reduction) entries.
	DegFamily = "deg"
	// RawFamily holds raw record text (the D4M Traw channel).
	RawFamily = "raw"
)

// EdgeBand is the family band kernels push down when scanning the edge
// channel: EdgeFamily plus the unnamed family, so tables written before
// the channels were named (and generic WriteAssoc output, which writes
// under "") stay fully visible to banded kernels.
func EdgeBand() []string { return []string{"", EdgeFamily} }

// DegBand is the degree-channel counterpart of EdgeBand.
func DegBand() []string { return []string{"", DegFamily} }

// VertexName formats vertex ids as fixed-width row keys so lexicographic
// key order matches numeric order — the standard NoSQL graph convention.
func VertexName(v int) string { return fmt.Sprintf("v%08d", v) }

// ParseVertex recovers the id from a VertexName key.
func ParseVertex(key string) (int, error) {
	if len(key) != 9 || key[0] != 'v' {
		return 0, fmt.Errorf("schema: bad vertex key %q", key)
	}
	return strconv.Atoi(key[1:])
}

// AdjacencySchema manages the two tables that hold an undirected graph:
// its adjacency matrix and a degree table. An undirected graph's
// adjacency matrix is its own transpose, so the one table serves as
// either operand of a multiply — TableMult's C ⊕= Aᵀ·B reads it as Aᵀ
// and as B alike. A data directory written when the schema kept a
// separate <base>T copy of A keeps that table; nothing reads it.
type AdjacencySchema struct {
	Table    string // A = Aᵀ: row = vertex, colQ = neighbour
	DegTable string // row = vertex, value = degree
	conn     *accumulo.Connector
}

// NewAdjacencySchema creates (or reuses) the two tables. Both sum their
// entries at every scope, so edge weights and degrees accumulate; an
// existing table without the sum combiner at some scope is upgraded in
// place, and one with another combiner is an error.
func NewAdjacencySchema(conn *accumulo.Connector, base string) (*AdjacencySchema, error) {
	s := &AdjacencySchema{
		Table:    base,
		DegTable: base + "Deg",
		conn:     conn,
	}
	ops := conn.TableOperations()
	for _, name := range []string{s.Table, s.DegTable} {
		if err := ops.EnsureCombiner(name, "sum"); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// IngestGraph writes an undirected graph into the schema: every edge
// lands in A in both orientations and increments both endpoint
// degrees — four entries per edge.
func (s *AdjacencySchema) IngestGraph(g gen.Graph) error {
	wA, err := s.conn.CreateBatchWriter(s.Table, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	wD, err := s.conn.CreateBatchWriter(s.DegTable, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	for _, e := range g.Edges {
		u, v := VertexName(e.U), VertexName(e.V)
		if err := wA.PutFloat(u, EdgeFamily, v, 1); err != nil {
			return err
		}
		if err := wA.PutFloat(v, EdgeFamily, u, 1); err != nil {
			return err
		}
		if err := wD.PutFloat(u, DegFamily, "deg", 1); err != nil {
			return err
		}
		if err := wD.PutFloat(v, DegFamily, "deg", 1); err != nil {
			return err
		}
	}
	for _, w := range []*accumulo.BatchWriter{wA, wD} {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ReadAssoc scans a whole table back into an associative array,
// attributed to q (nil = untraced): the scan lands in the query's span
// tree and counters. The scan is consumed as a stream: entries fold
// into the array's builder one wire batch at a time, so the transfer
// never holds the table twice (raw entries plus array).
func ReadAssoc(conn *accumulo.Connector, table string, q *telemetry.Query) (*assoc.Assoc, error) {
	sc, err := conn.CreateScanner(table)
	if err != nil {
		return nil, err
	}
	sc.SetTrace(q)
	st, err := sc.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	b := assoc.NewBuilder(semiring.PlusTimes)
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if v, ok := skv.DecodeFloat(e.V); ok {
			b.Add(e.K.Row, e.K.ColQ, v)
		}
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// WriteAssoc writes associative-array entries into a table (row →
// colQ, unnamed family) on behalf of q (nil = untraced): its flushes
// land in the query's counters and are charged to its write budget.
func WriteAssoc(conn *accumulo.Connector, table string, entries []assoc.Entry, q *telemetry.Query) error {
	w, err := conn.CreateBatchWriter(table, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	w.SetTrace(q)
	for _, e := range entries {
		if err := w.PutFloat(e.Row, "", e.Col, e.Val); err != nil {
			return err
		}
	}
	return w.Close()
}

// D4M implements the D4M 2.0 schema of §II.B.3: Tedge holds one row per
// record with exploded "field|value" columns, TedgeT its transpose, Tdeg
// the column-degree counts, and Traw the raw record text.
type D4M struct {
	Tedge  string
	TedgeT string
	Tdeg   string
	Traw   string
	conn   *accumulo.Connector
}

// NewD4M creates (or reuses) the four tables; Tdeg sums its counts.
func NewD4M(conn *accumulo.Connector, base string) (*D4M, error) {
	d := &D4M{
		Tedge:  base + "edge",
		TedgeT: base + "edgeT",
		Tdeg:   base + "deg",
		Traw:   base + "raw",
		conn:   conn,
	}
	ops := conn.TableOperations()
	for _, name := range []string{d.Tedge, d.TedgeT, d.Traw} {
		if !ops.Exists(name) {
			if err := ops.Create(name); err != nil {
				return nil, err
			}
		}
	}
	if err := ops.EnsureCombiner(d.Tdeg, "sum"); err != nil {
		return nil, err
	}
	return d, nil
}

// Record is one dense input record: an id plus field → value pairs.
type Record struct {
	ID     string
	Fields map[string]string
}

// ExplodedColumn builds the D4M "field|value" column key.
func ExplodedColumn(field, value string) string { return field + "|" + value }

// Ingest explodes records into the four tables: each unique
// field|value pair becomes a column of Tedge with value 1, TedgeT holds
// the transpose, Tdeg counts column occurrences, and Traw stores the
// flattened record.
func (d *D4M) Ingest(records []Record) error {
	we, err := d.conn.CreateBatchWriter(d.Tedge, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	wt, err := d.conn.CreateBatchWriter(d.TedgeT, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	wd, err := d.conn.CreateBatchWriter(d.Tdeg, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	wr, err := d.conn.CreateBatchWriter(d.Traw, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	for _, rec := range records {
		fields := make([]string, 0, len(rec.Fields))
		for f := range rec.Fields {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		raw := ""
		for _, f := range fields {
			col := ExplodedColumn(f, rec.Fields[f])
			if err := we.PutFloat(rec.ID, EdgeFamily, col, 1); err != nil {
				return err
			}
			if err := wt.PutFloat(col, EdgeFamily, rec.ID, 1); err != nil {
				return err
			}
			if err := wd.PutFloat(col, DegFamily, "deg", 1); err != nil {
				return err
			}
			if raw != "" {
				raw += ","
			}
			raw += f + "=" + rec.Fields[f]
		}
		if err := wr.Put(rec.ID, RawFamily, "raw", skv.Value(raw)); err != nil {
			return err
		}
	}
	for _, w := range []*accumulo.BatchWriter{we, wt, wd, wr} {
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Degrees reads Tdeg back as column → count, consuming the scan as a
// stream. A row with several numeric entries keeps the last; a value
// that does not decode is skipped.
func (d *D4M) Degrees() (map[string]float64, error) {
	sc, err := d.conn.CreateScanner(d.Tdeg)
	if err != nil {
		return nil, err
	}
	st, err := sc.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	degs := map[string]float64{}
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if v, ok := skv.DecodeFloat(e.V); ok {
			degs[e.K.Row] = v
		}
	}
	return degs, st.Err()
}

// Raw reads one record's flattened text back from Traw.
func (d *D4M) Raw(id string) (string, error) {
	sc, err := d.conn.CreateScanner(d.Traw)
	if err != nil {
		return "", err
	}
	sc.SetRange(skv.ExactRow(id))
	entries, err := sc.Entries()
	if err != nil {
		return "", err
	}
	if len(entries) == 0 {
		return "", fmt.Errorf("schema: no raw record %q", id)
	}
	return string(entries[0].V), nil
}
