package graphulo

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphulo/internal/gen"
)

// planTestGraph is a fixed graph with a non-trivial k-truss: the
// barbell's bridge is in no triangle, so its 4-truss is the two K4s.
func planTestGraph() Graph { return DedupGraph(gen.Barbell(4, 1)) }

// matchesReference checks an associative array read back from a kernel's
// result table against the in-memory reference matrix over vertex ids.
func matchesReference(t *testing.T, kernel string, got *Assoc, want *Matrix) {
	t.Helper()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("%s has %d cells, in-memory reference %d", kernel, got.NNZ(), want.NNZ())
	}
	for _, tr := range want.Triples() {
		if v := got.At(VertexName(tr.Row), VertexName(tr.Col)); math.Abs(v-tr.Val) > 1e-9 {
			t.Fatalf("%s cell (%d,%d) = %g, in-memory reference %g", kernel, tr.Row, tr.Col, v, tr.Val)
		}
	}
}

// TestFusedDriversMatchMaterialized asserts the fused plan drivers equal
// the in-memory linear-algebra reference (internal/algo) on every
// transport — same entries, same values, same triangle count — and pins
// how many intermediate tables each materialises, via the
// ScratchTablesCreated metric, so a planner regression that silently
// reintroduces a write-then-rescan round-trip fails loudly.
func TestFusedDriversMatchMaterialized(t *testing.T) {
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

	graph := planTestGraph()
	adj := AdjacencyPat(graph)
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			g, err := db.CreateGraph("Eq")
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Ingest(graph); err != nil {
				t.Fatal(err)
			}
			scratchDelta := func(run func() error) int64 {
				before := db.ScanMetrics().ScratchTablesCreated
				if err := run(); err != nil {
					t.Fatal(err)
				}
				return db.ScanMetrics().ScratchTablesCreated - before
			}

			// kTruss on barbell(4,1) with k=4 takes one peel round: the
			// bridge is in no triangle, so it is missing from the round
			// table, and every present cell has support 2 = k−2. One
			// round is one round table.
			var truss *Assoc
			if got := scratchDelta(func() (err error) { truss, err = g.KTruss(4); return }); got != 1 {
				t.Errorf("fused kTruss created %d scratch tables, want 1", got)
			}
			matchesReference(t, "kTruss", truss, KTrussAdj(adj, 4))
			if truss.NNZ() != 24 {
				t.Fatalf("kTruss nnz = %d, want 24 (two K4s)", truss.NNZ())
			}

			// Jaccard and TriangleCount stream A² partial products to the
			// client and ⊕-fold there: zero scratch tables.
			var jac *Assoc
			if got := scratchDelta(func() (err error) { jac, err = g.Jaccard(); return }); got != 0 {
				t.Errorf("fused Jaccard created %d scratch tables, want 0", got)
			}
			// The table kernel writes the strict upper triangle.
			matchesReference(t, "Jaccard", jac, Triu(Jaccard(adj), 1))

			var tri float64
			if got := scratchDelta(func() (err error) { tri, err = g.TriangleCount(); return }); got != 0 {
				t.Errorf("fused TriangleCount created %d scratch tables, want 0", got)
			}
			if want := TriangleCount(adj); tri != want {
				t.Fatalf("triangles = %v, in-memory = %v", tri, want)
			}

			// A multigraph: ingest sums a repeated edge to 2, and support
			// must still count it once, as the reference does on the 0/1
			// pattern.
			mg, err := db.CreateGraph("Multi")
			if err != nil {
				t.Fatal(err)
			}
			multi := multigraphDiamond()
			if err := mg.Ingest(multi); err != nil {
				t.Fatal(err)
			}
			multiAdj := AdjacencyPat(multi)
			for _, k := range []int{3, 4} {
				truss, err := mg.KTruss(k)
				if err != nil {
					t.Fatal(err)
				}
				matchesReference(t, fmt.Sprintf("multigraph %d-truss", k), truss, KTrussAdj(multiAdj, k))
			}
			if tri, err := mg.TriangleCount(); err != nil || tri != TriangleCount(multiAdj) {
				t.Fatalf("multigraph triangles = %v (err %v), in-memory = %v", tri, err, TriangleCount(multiAdj))
			}
		})
	}
}

// multigraphDiamond is the diamond {ab, ac, ad, bc, bd} — two triangles,
// abc and abd — with ac and bc listed twice. Its 3-truss is every edge
// and its 4-truss is empty; weighting support by the stored 2s instead
// counts abc as a 4-truss and 11/3 triangles.
func multigraphDiamond() Graph {
	const a, b, c, d = 0, 1, 2, 3
	g := Graph{N: 4}
	for _, uv := range [][2]int{{a, b}, {a, c}, {a, d}, {b, c}, {b, d}, {a, c}, {b, c}} {
		g.Edges = append(g.Edges, Edge{U: uv[0], V: uv[1]})
	}
	return g
}

// TestConcurrentKTrussNoScratchCollision runs four kTruss computations
// over the same graph concurrently: each must get the reference answer,
// so the round tables (named by the query's trace id) may not be
// shared.
func TestConcurrentKTrussNoScratchCollision(t *testing.T) {
	db := mustOpen(ClusterConfig{TabletServers: 2})
	defer db.Close()
	g, err := db.CreateGraph("Conc")
	if err != nil {
		t.Fatal(err)
	}
	graph := planTestGraph()
	if err := g.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	want, err := g.KTruss(4)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	results := make(chan *Assoc, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := g.KTruss(4)
			if err != nil {
				errs <- err
				return
			}
			results <- a
		}()
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	for a := range results {
		if !reflect.DeepEqual(a.Entries(), want.Entries()) {
			t.Fatalf("concurrent kTruss diverged:\ngot:  %v\nwant: %v", a.Entries(), want.Entries())
		}
	}
}

// TestConcurrentPageRankNoScratchCollision runs four PageRank
// computations over the same graph concurrently: each must equal a
// sequential run, so the rank-vector table (named by the query's trace
// id) may not be shared — and none may outlive its
// call.
func TestConcurrentPageRankNoScratchCollision(t *testing.T) {
	db := mustOpen(ClusterConfig{TabletServers: 2})
	defer db.Close()
	g, err := db.CreateGraph("PR")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(planTestGraph()); err != nil {
		t.Fatal(err)
	}
	tables := db.conn.TableOperations().List()
	want, wantIters, err := g.PageRank(0.15, 1e-12, 200)
	if err != nil {
		t.Fatal(err)
	}
	if after := db.conn.TableOperations().List(); !reflect.DeepEqual(after, tables) {
		t.Fatalf("tables after PageRank = %v, before %v", after, tables)
	}

	type result struct {
		ranks map[string]float64
		iters int
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	results := make(chan result, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranks, iters, err := g.PageRank(0.15, 1e-12, 200)
			if err != nil {
				errs <- err
				return
			}
			results <- result{ranks, iters}
		}()
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	for r := range results {
		if r.iters != wantIters || len(r.ranks) != len(want) {
			t.Fatalf("concurrent PageRank took %d iterations over %d vertices, sequential %d over %d", r.iters, len(r.ranks), wantIters, len(want))
		}
		for v, x := range want {
			if math.Abs(r.ranks[v]-x) > 1e-12 {
				t.Fatalf("concurrent PageRank diverged at %s: %v, sequential %v", v, r.ranks[v], x)
			}
		}
	}
	if after := db.conn.TableOperations().List(); !reflect.DeepEqual(after, tables) {
		t.Fatalf("tables after concurrent PageRank = %v, before %v", after, tables)
	}
}

// TestTableAssign checks the SpAsgn kernel: entries land in the
// destination sub-array with row/col offsets prefixed, server-side,
// honouring the scan constraint.
func TestTableAssign(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	defer db.Close()
	src := NewAssoc([]AssocEntry{
		{Row: "a", Col: "x", Val: 1},
		{Row: "b", Col: "y", Val: 2},
		{Row: "c", Col: "z", Val: 3},
	}, PlusTimes)
	if err := db.WriteAssoc("In", src); err != nil {
		t.Fatal(err)
	}

	n, err := db.TableAssign("In", "Out", "p|", "q|", ScanConstraint{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("TableAssign wrote %d entries, want 3", n)
	}
	out, err := db.ReadAssoc("Out")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range src.Entries() {
		got := out.At("p|"+e.Row, "q|"+e.Col)
		if math.Abs(got-e.Val) > 1e-12 {
			t.Fatalf("Out[p|%s, q|%s] = %v, want %v", e.Row, e.Col, got, e.Val)
		}
	}

	// A row constraint prunes before the remap sees the stream: only
	// rows in the half-open band [a, c) cross.
	n, err = db.TableAssign("In", "Band", "p|", "", ScanConstraint{RowStart: "a", RowEnd: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("constrained TableAssign wrote %d entries, want 2", n)
	}
	band, err := db.ReadAssoc("Band")
	if err != nil {
		t.Fatal(err)
	}
	if band.At("p|c", "z") != 0 {
		t.Fatal("row constraint leaked row c through TableAssign")
	}
}

// TestExplainPlanSurface checks the explain surface: every kernel
// compiles, kTruss reports a fused group whose support stage writes its
// round table, TriangleCount's collect notes that no scratch table is
// made, the multiply's sink shows the fold stage as its own line, and
// the support pass, whose cells arrive whole, has none.
func TestExplainPlanSurface(t *testing.T) {
	for _, k := range ExplainKernels() {
		out, err := ExplainPlan(k, "A", "C")
		if err != nil {
			t.Fatalf("ExplainPlan(%q): %v", k, err)
		}
		if !strings.Contains(out, "plan ") {
			t.Fatalf("ExplainPlan(%q) output missing plan header:\n%s", k, out)
		}
	}
	kt, err := ExplainPlan("ktruss", "A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(kt, "fused group") {
		t.Fatalf("kTruss explain must show a fused group:\n%s", kt)
	}
	if !strings.Contains(kt, "- write C") {
		t.Fatalf("kTruss explain must show the round's write sink:\n%s", kt)
	}
	tri, err := ExplainPlan("tricount", "A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tri, "no scratch table") {
		t.Fatalf("TriangleCount explain must note the scratch-free collect:\n%s", tri)
	}
	mult, err := ExplainPlan("mult", "A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mult, "- fold ⊕ plus.times ≤16 MiB\n") || strings.Contains(mult, "pre-agg") {
		t.Fatalf("mult explain must show the fold stage on its own line:\n%s", mult)
	}
	for kernel, out := range map[string]string{"ktruss": kt, "tricount": tri} {
		if !strings.Contains(out, "- apply support\n") || strings.Contains(out, "fold ⊕") {
			t.Fatalf("%s explain must show the support stage and no fold stage:\n%s", kernel, out)
		}
	}
}
