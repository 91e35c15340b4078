package core

// The fold stage in situ, on counters rather than clocks: the same
// TwoTable → fold pair must fold as well inside a four-tablet cluster
// as it does over one in-memory env, under the write sink and in front
// of the wire under the folding collect, on every transport.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/gen"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
	"graphulo/internal/telemetry"
)

// foldTransports is one two-server cluster config per deployment.
func foldTransports(t *testing.T) map[string]accumulo.Config {
	return map[string]accumulo.Config{
		"inproc":   {TabletServers: 2, Transport: accumulo.TransportInProc},
		"tcp":      {TabletServers: 2, Transport: accumulo.TransportTCP},
		"external": startExternalServers(t, 2),
	}
}

// quartileSplits cuts the graph's adjacency rows into four equally
// loaded tablets (RMAT rows are skewed towards low ids).
func quartileSplits(g gen.Graph) []string {
	var rows []int
	for _, e := range g.Edges {
		rows = append(rows, e.U, e.V)
	}
	sort.Ints(rows)
	var splits []string
	for q := 1; q <= 3; q++ {
		splits = append(splits, schema.VertexName(rows[q*len(rows)/4]))
	}
	return splits
}

// loadSplitGraph ingests g into an adjacency schema whose A is
// pre-split (external clusters cannot split after the fact).
func loadSplitGraph(t *testing.T, conn *accumulo.Connector, base string, g gen.Graph, splits []string) *schema.AdjacencySchema {
	t.Helper()
	ops := conn.TableOperations()
	if err := ops.CreateWithSplits(base, splits); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator(base, "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator(base, iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	sch, err := schema.NewAdjacencySchema(conn, base)
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	return sch
}

// sliceEnv serves one operand to a RemoteSource and counts folds.
type sliceEnv struct {
	operand []skv.Entry
	folded  int
}

func (e *sliceEnv) OpenScanner(string, skv.Range) (iterator.SKVI, error) {
	return iterator.NewSliceIter(e.operand), nil
}
func (e *sliceEnv) WriteEntries(string, []skv.Entry) error { return nil }
func (e *sliceEnv) CountRangePruned(int)                   {}
func (e *sliceEnv) CountFolded(n int)                      { e.folded += n }

// isolatedFoldRatio runs TwoTable → fold over the adjacency in one
// in-memory env, sought tablet band by tablet band (a pass only ever
// sees its own tablet's inner rows, so cells shared between bands cannot
// fold anywhere but in the result table), and returns folded ÷ partial
// products.
func isolatedFoldRatio(t *testing.T, g gen.Graph, pp int, splits []string) float64 {
	t.Helper()
	var operand []skv.Entry
	for _, e := range g.Edges {
		u, v := schema.VertexName(e.U), schema.VertexName(e.V)
		operand = append(operand,
			skv.Entry{K: skv.Key{Row: u, ColF: schema.EdgeFamily, ColQ: v}, V: skv.EncodeFloat(1)},
			skv.Entry{K: skv.Key{Row: v, ColF: schema.EdgeFamily, ColQ: u}, V: skv.EncodeFloat(1)})
	}
	env := &sliceEnv{operand: operand}
	tt := iterator.NewTwoTableIterator(iterator.NewSliceIter(operand), iterator.NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
	fold := iterator.NewFoldIterator(tt, semiring.PlusTimes, plan.DefaultPreAggBytes, env)
	bounds := append(append([]string{""}, splits...), "")
	for i := 1; i < len(bounds); i++ {
		if err := fold.Seek(skv.RowRange(bounds[i-1], bounds[i])); err != nil {
			t.Fatal(err)
		}
		if _, err := iterator.Collect(fold); err != nil {
			t.Fatal(err)
		}
	}
	return float64(env.folded) / float64(pp)
}

// sumDegSquared is the partial-product count of A·A.
func sumDegSquared(g gen.Graph) int {
	deg := map[int]int{}
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	pp := 0
	for _, d := range deg {
		pp += d * d
	}
	return pp
}

// TestTableMultFoldsInSitu: server-side TableMult of a scale-8 power-law
// graph over four tablets folds at least 55 % of its partial products,
// within 0.08 of what the same iterator pair folds in isolation, and
// accounts for every product as written or folded.
func TestTableMultFoldsInSitu(t *testing.T) {
	g := gen.Dedup(gen.RMAT(gen.Graph500(8, 11)))
	pp := sumDegSquared(g)
	splits := quartileSplits(g)
	isolated := isolatedFoldRatio(t, g, pp, splits)
	for name, cfg := range foldTransports(t) {
		conn := equivCluster(t, cfg)
		sch := loadSplitGraph(t, conn, "G", g, splits)
		if err := conn.TableOperations().CreateWithSplits("C", splits); err != nil {
			t.Fatal(err)
		}
		m := &conn.Cluster().Telemetry().Stats
		before := m.Get(telemetry.PartialProductsFolded)
		written, err := TableMult(conn, sch.Table, sch.Table, "C", MultOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		folded := int(m.Get(telemetry.PartialProductsFolded) - before)
		if written+folded != pp {
			t.Errorf("%s: wrote %d + folded %d = %d, want Σdeg² = %d", name, written, folded, written+folded, pp)
		}
		ratio := float64(folded) / float64(folded+written)
		t.Logf("%s: in situ %.4f, isolated %.4f", name, ratio, isolated)
		if ratio < 0.55 || math.Abs(ratio-isolated) > 0.08 {
			t.Errorf("%s: in-situ fold ratio %.3f, want ≥ 0.55 and within 0.08 of the isolated pair's %.3f", name, ratio, isolated)
		}
	}
}

// TestFoldingCollectFoldsBeforeTheWire: one pass of Jaccard's A² plan
// delivers at most half as many entries as it forms partial products
// (every scan of the pass counted, the nested Aᵀ reads included), and
// Jaccard built on it — and kTruss and TriangleCount on the
// support plan — still equal the in-memory reference cell for cell, on
// every transport.
func TestFoldingCollectFoldsBeforeTheWire(t *testing.T) {
	g := gen.Dedup(gen.RMAT(gen.Graph500(7, 11)))
	adj := gen.AdjacencyPattern(g)
	pp := sumDegSquared(g)
	wantTruss, wantJaccard, wantTriangles := algo.KTrussAdj(adj, 3), algo.Jaccard(adj), algo.TriangleCount(adj)
	splits := quartileSplits(g)
	for name, cfg := range foldTransports(t) {
		conn := equivCluster(t, cfg)
		sch := loadSplitGraph(t, conn, "G", g, splits)

		q, done, err := startQuery(conn, "square", "")
		if err != nil {
			t.Fatal(err)
		}
		m := &conn.Cluster().Telemetry().Stats
		before := m.Get(telemetry.EntriesScanned)
		sq := map[[2]string]float64{}
		_, err = runPlan(conn, adjSquareFoldPlan(sch.Table), "square", q, func(e skv.Entry) error {
			v, ok := skv.DecodeFloat(e.V)
			if !ok {
				return fmt.Errorf("entry %v: non-numeric %q", e.K, e.V)
			}
			sq[[2]string{e.K.Row, e.K.ColQ}] += v
			return nil
		})
		done(err)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if delivered := int(m.Get(telemetry.EntriesScanned) - before); 2*delivered > pp {
			t.Errorf("%s: A² pass delivered %d entries for %d partial products, want at most half", name, delivered, pp)
		}
		for _, tr := range sparse.SpGEMM(adj, adj, semiring.PlusTimes).Triples() {
			if got := sq[[2]string{schema.VertexName(tr.Row), schema.VertexName(tr.Col)}]; got != tr.Val {
				t.Fatalf("%s: A²(%d,%d) = %v, want %v", name, tr.Row, tr.Col, got, tr.Val)
			}
		}

		trussA, _, err := KTruss(conn, sch.Table, 3, "trussScratch")
		if err != nil {
			t.Fatalf("%s: kTruss: %v", name, err)
		}
		truss := assocMatrix(trussA)
		cells := 0
		for _, row := range truss {
			cells += len(row)
		}
		if cells != wantTruss.NNZ() {
			t.Errorf("%s: 3-truss has %d cells, reference %d", name, cells, wantTruss.NNZ())
		}
		for _, tr := range wantTruss.Triples() {
			if truss[schema.VertexName(tr.Row)][schema.VertexName(tr.Col)] == 0 {
				t.Fatalf("%s: truss edge (%d,%d) missing", name, tr.Row, tr.Col)
			}
		}

		jacA, err := Jaccard(conn, sch.Table)
		if err != nil {
			t.Fatalf("%s: Jaccard: %v", name, err)
		}
		jac := assocMatrix(jacA)
		for _, tr := range wantJaccard.Triples() {
			if tr.Row >= tr.Col {
				continue
			}
			if got := jac[schema.VertexName(tr.Row)][schema.VertexName(tr.Col)]; math.Abs(got-tr.Val) > 1e-12 {
				t.Fatalf("%s: J(%d,%d) = %v, want %v", name, tr.Row, tr.Col, got, tr.Val)
			}
		}

		triangles, err := TriangleCountTable(conn, sch.Table)
		if err != nil {
			t.Fatalf("%s: TriangleCount: %v", name, err)
		}
		if triangles != wantTriangles {
			t.Errorf("%s: %v triangles, reference %v", name, triangles, wantTriangles)
		}
	}
}
