package core

// Tests for the SpRef push-down (range-constrained kernels) and the
// RemoteWrite ⊕ pre-aggregation buffer.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/iterator"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// loadSplitMatrix builds a summing table with the given splits and a
// dense inner×cols matrix, rows ikNNN.
func loadSplitMatrix(t *testing.T, conn *accumulo.Connector, table string, splits []string, nInner, nCols int, val func(i, j int) float64) {
	t.Helper()
	ops := conn.TableOperations()
	if err := ops.CreateWithSplits(table, splits); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator(table, "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator(table, iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter(table, accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nInner; i++ {
		for j := 0; j < nCols; j++ {
			if v := val(i, j); v != 0 {
				if err := w.PutFloat(innerRow(i), "", fmt.Sprintf("c%02d", j), v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func innerRow(i int) string { return fmt.Sprintf("i%03d", i) }

// splits16 cuts rows i000..i127 into 16 tablets of 8 rows each.
func splits16() []string {
	var s []string
	for i := 8; i < 128; i += 8 {
		s = append(s, innerRow(i))
	}
	return s
}

// TestTableMultRangeConstrainedPrunesTablets is the SpRef push-down
// claim end to end: a banded multiply over a 16-split table runs the
// kernel stack only on the tablets its row band overlaps, on both
// operands, and produces exactly the band-restricted product.
func TestTableMultRangeConstrainedPrunesTablets(t *testing.T) {
	conn := testConn(t)
	val := func(i, j int) float64 { return float64((i*7+j*3)%5) + 1 }
	loadSplitMatrix(t, conn, "ATb", splits16(), 128, 4, val)
	loadSplitMatrix(t, conn, "Bb", splits16(), 128, 6, val)

	// Full product as the reference.
	if _, err := TableMult(conn, "ATb", "Bb", "Cfull", MultOptions{}); err != nil {
		t.Fatal(err)
	}
	full := readMatrix(t, conn, "Cfull")

	// Banded product: inner rows [i016, i032) — exactly 2 of 16 tablets.
	m := &conn.Cluster().Telemetry().Stats
	passesBefore := m.Get(telemetry.TabletScans)
	prunedBefore := m.Get(telemetry.TabletsPrunedByRange)
	band := ScanConstraint{RowStart: innerRow(16), RowEnd: innerRow(32)}
	n, err := TableMult(conn, "ATb", "Bb", "Cband", MultOptions{Constraint: band})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("banded multiply wrote nothing")
	}
	passes := m.Get(telemetry.TabletScans) - passesBefore
	pruned := m.Get(telemetry.TabletsPrunedByRange) - prunedBefore

	// The band overlaps 2 B tablets (the kernel passes), and each pass
	// seeds its remote AT scan with the pushed band ∩ its own tablet's
	// row band — which overlaps exactly 1 of AT's 16 tablets. A full
	// multiply would run all 16 B tablets and 16 AT passes each; the
	// pushed band keeps it to 4 executed passes total.
	if want := int64(2 + 2*1); passes != want {
		t.Errorf("banded TableMult ran %d tablet passes, want %d", passes, want)
	}
	// 14 B tablets pruned client-side + 15 AT tablets per remote scan.
	if want := int64(14 + 2*15); pruned != want {
		t.Errorf("banded TableMult pruned %d tablets, want %d", pruned, want)
	}

	// Correctness: Cband = the rows-in-band contribution of the full
	// product, nothing else.
	got := readMatrix(t, conn, "Cband")
	for a := 0; a < 4; a++ {
		for b := 0; b < 6; b++ {
			ar, bc := fmt.Sprintf("c%02d", a), fmt.Sprintf("c%02d", b)
			want := 0.0
			for i := 16; i < 32; i++ {
				want += val(i, a) * val(i, b)
			}
			if math.Abs(got[ar][bc]-want) > 1e-9 {
				t.Fatalf("Cband[%s][%s] = %v, want %v", ar, bc, got[ar][bc], want)
			}
			if full[ar][bc] == want {
				t.Fatalf("degenerate test: banded product equals full product at %s,%s", ar, bc)
			}
		}
	}
}

// TestTableMultColumnBandFiltersServerSide checks the column-qualifier
// half of the constraint: B columns outside [ColQStart, ColQEnd) never
// reach the partial-product stage, observed through the pruning
// counter, and C holds only the selected columns.
func TestTableMultColumnBandFiltersServerSide(t *testing.T) {
	conn := testConn(t)
	val := func(i, j int) float64 { return float64(i + j + 1) }
	loadSplitMatrix(t, conn, "ATc", nil, 8, 3, val)
	loadSplitMatrix(t, conn, "Bc", nil, 8, 6, val)

	m := &conn.Cluster().Telemetry().Stats
	before := m.Get(telemetry.EntriesPrunedByRange)
	band := ScanConstraint{ColQStart: "c02", ColQEnd: "c04"}
	if _, err := TableMult(conn, "ATc", "Bc", "Ccol", MultOptions{Constraint: band}); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(telemetry.EntriesPrunedByRange) - before; got == 0 {
		t.Error("column band pruned no entries server-side")
	}
	got := readMatrix(t, conn, "Ccol")
	for _, row := range got {
		for col := range row {
			if col < "c02" || col >= "c04" {
				t.Fatalf("column %s escaped the band: %v", col, got)
			}
		}
	}
	for a := 0; a < 3; a++ {
		for b := 2; b < 4; b++ {
			want := 0.0
			for i := 0; i < 8; i++ {
				want += val(i, a) * val(i, b)
			}
			if v := got[fmt.Sprintf("c%02d", a)][fmt.Sprintf("c%02d", b)]; math.Abs(v-want) > 1e-9 {
				t.Fatalf("Ccol[c%02d][c%02d] = %v, want %v", a, b, v, want)
			}
		}
	}
}

// TestOneTableConstrained checks the generic single-table kernel over a
// sub-array: rows outside the band never run the stack, columns outside
// the band are filtered below it.
func TestOneTableConstrained(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "OCin", []string{"r0", "r1", "r2"}, []string{"c0", "c1", "c2"},
		[][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	n, err := OneTable(conn, "OCin", "OCout", []iterator.Setting{
		{Name: "scale", Opts: map[string]string{"factor": "10"}},
	}, ScanConstraint{RowStart: "r1", RowEnd: "r2", ColQStart: "c1"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d entries, want 2", n)
	}
	got := readMatrix(t, conn, "OCout")
	want := map[string]map[string]float64{"r1": {"c1": 50, "c2": 60}}
	if len(got) != 1 || got["r1"]["c1"] != want["r1"]["c1"] || got["r1"]["c2"] != want["r1"]["c2"] {
		t.Fatalf("constrained OneTable = %v, want %v", got, want)
	}
}

// TestTableRowReduceConstrained reduces only the banded sub-array.
func TestTableRowReduceConstrained(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "RRin", []string{"r0", "r1"}, []string{"c0", "c1", "c2"},
		[][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, err := TableRowReduce(conn, "RRin", "RRout", "plus", "", "deg",
		ScanConstraint{ColQStart: "c1"}); err != nil {
		t.Fatal(err)
	}
	got := readMatrix(t, conn, "RRout")
	if got["r0"]["deg"] != 5 || got["r1"]["deg"] != 11 {
		t.Fatalf("banded row reduce = %v, want r0=5 r1=11", got)
	}
}

// TestAdjBFSRowBand restricts the search to a sub-graph: vertices
// outside the band are neither expanded nor reported, including seeds.
func TestAdjBFSRowBand(t *testing.T) {
	conn := testConn(t)
	// Path v0 - v1 - v2 - v3 - v4 plus an off-band seed v4.
	loadMatrix(t, conn, "Apath",
		[]string{"v0", "v1", "v2", "v3"},
		[]string{"v1", "v2", "v3", "v4"},
		[][]float64{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, 1},
		})
	got, err := AdjBFS(conn, "Apath", []string{"v0", "v4"}, 4, AdjBFSOptions{
		RowStart: "v0", RowEnd: "v3",
	})
	if err != nil {
		t.Fatal(err)
	}
	// v4 (seed) is out of band; the walk v0→v1→v2 stays in, v3 is out.
	want := map[string]int{"v0": 0, "v1": 1, "v2": 2}
	if len(got) != len(want) {
		t.Fatalf("banded BFS visited %v, want %v", got, want)
	}
	for v, hop := range want {
		if got[v] != hop {
			t.Fatalf("banded BFS visited %v, want %v", got, want)
		}
	}
}

// TestPreAggIdenticalResultsAcrossSemirings is the pre-aggregation
// correctness claim, for every standard ring — ⊕ that is not plain
// addition included: the server-side multiply, which folds its partial
// products before the write, leaves a result table cell-identical to the
// client-side multiply, which writes every raw product; the server
// writes fewer entries, and the difference is exactly what it counted
// as folded.
func TestPreAggIdenticalResultsAcrossSemirings(t *testing.T) {
	for _, ring := range semiring.Standard() {
		t.Run(ring.Name, func(t *testing.T) {
			conn := testConn(t)
			// 32 inner rows all feeding the same few output cells, so ⊕
			// genuinely folds many partial products per cell.
			val := func(i, j int) float64 { return float64((i*5+j)%7 + 1) }
			loadSplitMatrix(t, conn, "ATp", []string{innerRow(16)}, 32, 3, val)
			loadSplitMatrix(t, conn, "Bp", []string{innerRow(16)}, 32, 4, val)

			m := &conn.Cluster().Telemetry().Stats
			raw, err := TableMultClient(conn, "ATp", "Bp", "Cclient", MultOptions{Semiring: ring.Name})
			if err != nil {
				t.Fatal(err)
			}
			foldedBefore := m.Get(telemetry.PartialProductsFolded)
			written, err := TableMult(conn, "ATp", "Bp", "Cserver", MultOptions{Semiring: ring.Name})
			if err != nil {
				t.Fatal(err)
			}
			folded := m.Get(telemetry.PartialProductsFolded) - foldedBefore
			if folded == 0 {
				t.Error("pre-aggregation folded nothing")
			}
			if written >= raw {
				t.Errorf("server wrote %d entries, client %d raw products — no reduction", written, raw)
			}
			if int64(raw-written) != folded {
				t.Errorf("fold accounting: raw-written = %d, PartialProductsFolded = %d", raw-written, folded)
			}
			if client, server := readMatrix(t, conn, "Cclient"), readMatrix(t, conn, "Cserver"); !reflect.DeepEqual(server, client) {
				t.Fatalf("server result %v, client result %v", server, client)
			}
		})
	}
}

// TestRemoteWriteRejectsBadPreAggOptions pins validation in the
// registered fold factory — the one way a pre-aggregation stage is
// placed: bad options, a ring other than the multiply's, and any source
// but the twoTable stage directly below are refused, and the stack the
// planner builds is accepted.
func TestRemoteWriteRejectsBadPreAggOptions(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "RWin", []string{"r0"}, []string{"c0"}, [][]float64{{1}})
	twoTable := iterator.Setting{Name: "twoTable", Opts: map[string]string{"tableAT": "RWin", "semiring": "plus.times"}}
	scale := iterator.Setting{Name: "scale", Opts: map[string]string{"factor": "2"}}
	fold := func(opts map[string]string) iterator.Setting { return iterator.Setting{Name: "fold", Opts: opts} }
	for i, c := range []struct {
		stack []iterator.Setting
		ok    bool
	}{
		{[]iterator.Setting{twoTable, fold(map[string]string{"bytes": "nope"})}, false},
		{[]iterator.Setting{twoTable, fold(map[string]string{"bytes": "4096", "semiring": "nope"})}, false},
		{[]iterator.Setting{twoTable, fold(map[string]string{"bytes": "4096", "semiring": "min.plus"})}, false},
		{[]iterator.Setting{twoTable, scale, fold(map[string]string{"bytes": "4096", "semiring": "plus.times"})}, false},
		{[]iterator.Setting{fold(map[string]string{"bytes": "4096", "semiring": "plus.times"})}, false},
		{[]iterator.Setting{twoTable, fold(map[string]string{"bytes": "4096", "semiring": "plus.times"})}, true},
	} {
		if _, err := OneTable(conn, "RWin", fmt.Sprintf("RWout%d", i), c.stack, ScanConstraint{}); (err == nil) != c.ok {
			t.Errorf("stack %v: err = %v, want accepted %v", c.stack, err, c.ok)
		}
	}
}

// TestScannerMultiRange drives Scanner.SetRanges: several disjoint
// ranges come back as one sorted stream, overlapping requests coalesce,
// and tablets no range touches are pruned.
func TestScannerMultiRange(t *testing.T) {
	conn := testConn(t)
	loadSplitMatrix(t, conn, "MR", splits16(), 128, 1, func(i, j int) float64 { return float64(i + 1) })
	rows := func(lo, hi int) []string {
		var out []string
		for i := lo; i < hi; i++ {
			out = append(out, innerRow(i))
		}
		return out
	}
	m := &conn.Cluster().Telemetry().Stats
	for _, c := range []struct {
		name     string
		ranges   []skv.Range
		wantRows []string
		pruned   int64
	}{
		// Unsorted and overlapping: served as the sorted union. The ranges
		// cover tablets 0, 5, and 6 — the other 13 must be pruned.
		{"overlapping", []skv.Range{
			skv.RowRange(innerRow(40), innerRow(48)),
			skv.RowRange(innerRow(0), innerRow(8)),
			skv.RowRange(innerRow(44), innerRow(56)),
		}, append(rows(0, 8), rows(40, 56)...), 13},
		// A partition of the key space cut off the split points: the
		// whole table, in order, with nothing pruned.
		{"partition", []skv.Range{
			skv.RowRange("", innerRow(37)),
			skv.RowRange(innerRow(37), innerRow(90)),
			skv.RowRange(innerRow(90), ""),
		}, rows(0, 128), 0},
	} {
		sc, err := conn.CreateScanner("MR")
		if err != nil {
			t.Fatal(err)
		}
		prunedBefore := m.Get(telemetry.TabletsPrunedByRange)
		sc.SetRanges(c.ranges)
		entries, err := sc.Entries()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(c.wantRows) {
			t.Fatalf("%s: multi-range scan returned %d entries, want %d", c.name, len(entries), len(c.wantRows))
		}
		for i, e := range entries {
			if e.K.Row != c.wantRows[i] {
				t.Fatalf("%s: entry %d row = %s, want %s (sorted union)", c.name, i, e.K.Row, c.wantRows[i])
			}
		}
		if got := m.Get(telemetry.TabletsPrunedByRange) - prunedBefore; got != c.pruned {
			t.Errorf("%s: multi-range scan pruned %d tablets, want %d", c.name, got, c.pruned)
		}
	}

	// Zero ranges select zero keys — a dynamically computed empty range
	// set must not fall back to a full-table scan.
	sc2, err := conn.CreateScanner("MR")
	if err != nil {
		t.Fatal(err)
	}
	sc2.SetRanges(nil)
	empty, err := sc2.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("SetRanges(nil) scanned %d entries, want 0", len(empty))
	}
}
