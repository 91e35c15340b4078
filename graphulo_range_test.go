package graphulo

import (
	"fmt"
	"reflect"
	"testing"

	"graphulo/internal/gen"
	"graphulo/internal/sparse"
)

// runThreeWay executes fn against an inproc cluster, a tcp cluster, and
// an external-daemon cluster, returning the three results keyed by
// deployment name.
func runThreeWay[T any](t *testing.T, fn func(t *testing.T, db *DB) T) map[string]T {
	t.Helper()
	configs := map[string]ClusterConfig{
		"inproc": {Transport: "inproc"},
		"tcp":    {Transport: "tcp"},
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	configs["external"] = ClusterConfig{Servers: addrs}
	out := map[string]T{}
	for name, cfg := range configs {
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = fn(t, db)
		db.Close()
	}
	return out
}

// requireAgreement fails unless every deployment produced the inproc
// result.
func requireAgreement[T any](t *testing.T, results map[string]T) {
	t.Helper()
	base := results["inproc"]
	for name, res := range results {
		if !reflect.DeepEqual(res, base) {
			t.Errorf("%s results differ from inproc:\n%s: %+v\ninproc: %+v", name, name, res, base)
		}
	}
}

// TestRangeConstrainedKernelsThreeWayEquivalence drives the
// range-constrained TableMult (under plus.times, against an in-memory
// reference, and under min.plus) and the banded AdjBFS over all three
// deployments — inproc, tcp, external daemons — demanding identical
// results everywhere. This is the acceptance claim for SpRef push-down:
// the constraint changes what is scanned, never what is computed, on
// any wire.
func TestRangeConstrainedKernelsThreeWayEquivalence(t *testing.T) {
	g := PaperGraph()
	band := ScanConstraint{RowStart: VertexName(2), RowEnd: VertexName(6)}
	type result struct {
		bandMult map[string]string // plus.times, banded
		minPlus  map[string]string
		bandBFS  map[string]int
	}
	readTable := func(t *testing.T, db *DB, table string) map[string]string {
		a, err := db.ReadAssoc(table)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range a.Entries() {
			out[e.Row+"|"+e.Col] = fmt.Sprint(e.Val)
		}
		return out
	}
	results := runThreeWay(t, func(t *testing.T, db *DB) result {
		tg, err := db.CreateGraph("G")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Ingest(g); err != nil {
			t.Fatal(err)
		}
		a, at, _ := tg.Tables()
		var res result
		if _, err := db.TableMultOpts(at, a, "Con", MultOptions{Constraint: band}); err != nil {
			t.Fatal(err)
		}
		res.bandMult = readTable(t, db, "Con")
		if _, err := db.TableMultOpts(at, a, "Cmp", MultOptions{Semiring: "min.plus", Constraint: band}); err != nil {
			t.Fatal(err)
		}
		res.minPlus = readTable(t, db, "Cmp")
		if res.bandBFS, err = tg.BFSWithOptions([]int{1}, 3, BFSOptions{
			RowStart: VertexName(0), RowEnd: VertexName(5),
		}); err != nil {
			t.Fatal(err)
		}
		return res
	})
	base := results["inproc"]
	if len(base.bandMult) == 0 || len(base.bandBFS) == 0 {
		t.Fatalf("inproc run produced empty results: %+v", base)
	}
	// The banded product is Σ over inner rows in the band of A(i,·)ᵀ ⊗
	// A(i,·), A being its own transpose: the pre-aggregated server result
	// equals it cell for cell.
	want := map[string]float64{}
	rows := map[int][]sparse.Triple{}
	for _, c := range gen.Adjacency(g).Triples() {
		if name := VertexName(c.Row); name >= band.RowStart && name < band.RowEnd {
			rows[c.Row] = append(rows[c.Row], c)
		}
	}
	for _, row := range rows {
		for _, x := range row {
			for _, y := range row {
				want[VertexName(x.Col)+"|"+VertexName(y.Col)] += x.Val * y.Val
			}
		}
	}
	wantText := map[string]string{}
	for k, v := range want {
		wantText[k] = fmt.Sprint(v)
	}
	if !reflect.DeepEqual(base.bandMult, wantText) {
		t.Errorf("banded product:\ngot:  %v\nwant: %v", base.bandMult, wantText)
	}
	requireAgreement(t, results)
}
