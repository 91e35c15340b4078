package graphulo

import (
	"math"
	"reflect"
	"testing"

	"graphulo/internal/gen"
)

// The public-API tests exercise the facade end to end: in-memory
// kernels, table-backed algorithms, and the agreement between the two.

// mustOpen starts a cluster that cannot fail to open (in-memory, or a
// test tempdir) and fails the test otherwise.
func mustOpen(cfg ClusterConfig) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

func TestInMemoryKernelSurface(t *testing.T) {
	a := NewMatrix(2, 2, []Triple{{Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 3}}, PlusTimes)
	c := SpGEMM(a, a, PlusTimes)
	if c.At(0, 0) != 6 || c.At(1, 1) != 6 {
		t.Fatalf("SpGEMM via facade wrong:\n%v", c)
	}
	y := SpMV(a, []float64{1, 1}, PlusTimes)
	if y[0] != 2 || y[1] != 3 {
		t.Fatalf("SpMV via facade wrong: %v", y)
	}
	if Reduce(a, PlusMonoid) != 5 {
		t.Fatalf("Reduce via facade wrong")
	}
	x := SpMSpV(a, &Vector{N: 2, Idx: []int{0}, Val: []float64{1}}, PlusTimes)
	if !reflect.DeepEqual(x.Idx, []int{1}) || !reflect.DeepEqual(x.Val, []float64{2}) {
		t.Fatalf("SpMSpV via facade wrong: %+v", x)
	}
	if r := SpRef(a, []int{1}, []int{0}); r.Rows() != 1 || r.Cols() != 1 || r.At(0, 0) != 3 {
		t.Fatalf("SpRef via facade wrong:\n%v", r)
	}
	b := NewMatrix(1, 1, []Triple{{Row: 0, Col: 0, Val: 5}}, PlusTimes)
	if s := SpAsgn(a, []int{0}, []int{0}, b); s.At(0, 0) != 5 || s.At(0, 1) != 2 || s.NNZ() != 3 {
		t.Fatalf("SpAsgn via facade wrong:\n%v", s)
	}
	if s := EWiseAdd(a, c, PlusTimes); s.At(0, 0) != 6 || s.At(0, 1) != 2 || s.NNZ() != 4 {
		t.Fatalf("EWiseAdd via facade wrong:\n%v", s)
	}
	if p := EWiseMult(a, a, PlusTimes); p.At(0, 1) != 4 || p.At(1, 0) != 9 || EWiseMult(a, c, PlusTimes).NNZ() != 0 {
		t.Fatalf("EWiseMult via facade wrong:\n%v", p)
	}
	if s := Scale(a, 2); s.At(0, 1) != 4 || s.At(1, 0) != 6 {
		t.Fatalf("Scale via facade wrong:\n%v", s)
	}
}

func TestAssocSurface(t *testing.T) {
	a := NewAssoc([]AssocEntry{{Row: "x", Col: "y", Val: 1}}, PlusTimes)
	b := NewAssoc([]AssocEntry{{Row: "x", Col: "y", Val: 2}}, PlusTimes)
	if AssocAdd(a, b).At("x", "y") != 3 {
		t.Fatalf("assoc add via facade wrong")
	}
}

func TestEndToEndTableGraph(t *testing.T) {
	db := mustOpen(ClusterConfig{TabletServers: 2, MemLimit: 256})
	g, err := db.CreateGraph("Web")
	if err != nil {
		t.Fatal(err)
	}
	graph := DedupGraph(RMAT(Graph500(6, 2)))
	if err := g.Ingest(graph); err != nil {
		t.Fatal(err)
	}

	// Degrees from the server-side RowReduce match the in-memory ones.
	adj := AdjacencyPat(graph)
	wantDeg := DegreeCentrality(adj)
	deg, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < graph.N; v++ {
		if wantDeg[v] == 0 {
			continue // isolated vertices never reach the table
		}
		if deg[VertexName(v)] != wantDeg[v] {
			t.Fatalf("deg[%d] = %v, want %v", v, deg[VertexName(v)], wantDeg[v])
		}
	}

	// BFS levels agree with the in-memory algorithm.
	src := graph.Edges[0].U
	levels, err := g.BFS([]int{src}, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels := BFSLevels(adj, src)
	for v := 0; v < graph.N; v++ {
		key := VertexName(v)
		got, visited := levels[key]
		switch {
		case wantLevels[v] >= 0 && wantLevels[v] <= 3:
			if !visited || got != wantLevels[v] {
				t.Fatalf("BFS level[%d] = %d (visited %v), want %d", v, got, visited, wantLevels[v])
			}
		default:
			if visited {
				t.Fatalf("vertex %d should not be visited within 3 hops", v)
			}
		}
	}

	// Triangle counting via server-side TableMult.
	tri, err := g.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	if want := TriangleCount(adj); tri != want {
		t.Fatalf("table triangles = %v, in-memory %v", tri, want)
	}

	// Metrics moved.
	wire, rpcs, written, scanned := db.Metrics()
	if wire == 0 || rpcs == 0 || written == 0 || scanned == 0 {
		t.Fatalf("metrics look dead: %d %d %d %d", wire, rpcs, written, scanned)
	}
}

func TestEndToEndKTrussAndJaccard(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	g, err := db.CreateGraph("Soc")
	if err != nil {
		t.Fatal(err)
	}
	graph := DedupGraph(gen.Barbell(4, 1))
	if err := g.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	truss, err := g.KTruss(4)
	if err != nil {
		t.Fatal(err)
	}
	// 4-truss of barbell(4,1) = the two K4s: 2 × 12 directed entries.
	if truss.NNZ() != 24 {
		t.Fatalf("truss nnz = %d, want 24", truss.NNZ())
	}
	jac, err := g.Jaccard()
	if err != nil {
		t.Fatal(err)
	}
	want := Jaccard(AdjacencyPat(graph))
	for _, e := range jac.Entries() {
		u, err1 := ParseVertex(e.Row)
		v, err2 := ParseVertex(e.Col)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad keys %q %q", e.Row, e.Col)
		}
		if math.Abs(want.At(u, v)-e.Val) > 1e-12 {
			t.Fatalf("jaccard (%d,%d) = %v, want %v", u, v, e.Val, want.At(u, v))
		}
	}
}

// TestGraphIsStoredOnce: an undirected graph's adjacency matrix is its
// own transpose, so CreateGraph makes two tables (A and its degrees),
// Ingest writes four entries per edge (A in both orientations and both
// endpoint degrees), and TableMult with A as both operands is A·A cell
// for cell.
func TestGraphIsStoredOnce(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	defer db.Close()
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Connector().TableOperations().List(); !reflect.DeepEqual(got, []string{"G", "GDeg"}) {
		t.Fatalf("CreateGraph made tables %v, want [G GDeg]", got)
	}
	g := DedupGraph(ErdosRenyi(60, 200, 5))
	_, _, before, _ := db.Metrics()
	if err := tg.Ingest(g); err != nil {
		t.Fatal(err)
	}
	if _, _, after, _ := db.Metrics(); after-before != int64(4*len(g.Edges)) {
		t.Fatalf("Ingest of %d edges wrote %d entries, want %d", len(g.Edges), after-before, 4*len(g.Edges))
	}
	a, at, _ := tg.Tables()
	if at != a {
		t.Fatalf("Tables() = (%s, %s, …): an undirected graph's A is its own transpose", a, at)
	}
	if _, err := db.TableMult(at, a, "Gsq", "plus.times"); err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadAssoc("Gsq")
	if err != nil {
		t.Fatal(err)
	}
	adj := gen.Adjacency(g)
	want := SpGEMM(adj, adj, PlusTimes)
	if got.NNZ() != want.NNZ() {
		t.Fatalf("A·A has %d cells on the cluster, want %d", got.NNZ(), want.NNZ())
	}
	for _, c := range want.Triples() {
		if v := got.At(VertexName(c.Row), VertexName(c.Col)); v != c.Val {
			t.Fatalf("A·A (%d,%d) = %v, want %v", c.Row, c.Col, v, c.Val)
		}
	}
}

func TestTableMultFacade(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	a := NewAssoc([]AssocEntry{
		{Row: "i", Col: "x", Val: 2},
		{Row: "i", Col: "y", Val: 3},
	}, PlusTimes)
	if err := db.WriteAssoc("FA", a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.TableMult("FA", "FA", "FC", "plus.times"); err != nil {
		t.Fatal(err)
	}
	c, err := db.ReadAssoc("FC")
	if err != nil {
		t.Fatal(err)
	}
	// C = AᵀA: C[x][x]=4, C[x][y]=6, C[y][x]=6, C[y][y]=9.
	if c.At("x", "y") != 6 || c.At("y", "y") != 9 {
		t.Fatalf("facade TableMult wrong:\n%v", c)
	}
}

func TestNMFTopicsFacade(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	corpus := NewTweets(TweetCorpusConfig{NumTweets: 150, Seed: 8})
	if err := db.WriteAssoc("Tweets", corpus.A); err != nil {
		t.Fatal(err)
	}
	res, err := db.NMFTopics("Tweets", "TW", "TH", NMFConfig{Topics: 5, MaxIter: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.W == nil || res.H == nil {
		t.Fatalf("missing factors")
	}
	h, err := db.ReadAssoc("TH")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rows()) != 5 {
		t.Fatalf("H topics = %v", h.Rows())
	}
}

// Derived-output methods must be idempotent: calling them twice must
// not fold stale results into fresh ones through the sum combiner.
func TestTableGraphMethodsAreRerunSafe(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	g, err := db.CreateGraph("RR")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(PaperGraph()); err != nil {
		t.Fatal(err)
	}
	tables := db.conn.TableOperations().List()
	d1, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	// The degrees stream back; no call leaves a table behind.
	if after := db.conn.TableOperations().List(); !reflect.DeepEqual(after, tables) {
		t.Fatalf("tables after Degrees() = %v, before %v", after, tables)
	}
	for k, v := range d1 {
		if d2[k] != v {
			t.Fatalf("second Degrees() changed %s: %v vs %v", k, v, d2[k])
		}
	}
	j1, err := g.Jaccard()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := g.Jaccard()
	if err != nil {
		t.Fatal(err)
	}
	if j1.NNZ() != j2.NNZ() {
		t.Fatalf("second Jaccard() changed nnz: %d vs %d", j1.NNZ(), j2.NNZ())
	}
	for _, e := range j1.Entries() {
		if math.Abs(j2.At(e.Row, e.Col)-e.Val) > 1e-12 {
			t.Fatalf("second Jaccard() changed (%s,%s)", e.Row, e.Col)
		}
	}
}

func TestNMFTopicsRerunSafe(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	corpus := NewTweets(TweetCorpusConfig{NumTweets: 80, Seed: 3})
	if err := db.WriteAssoc("RT", corpus.A); err != nil {
		t.Fatal(err)
	}
	r1, err := db.NMFTopics("RT", "RW", "RH", NMFConfig{Topics: 3, MaxIter: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.NMFTopics("RT", "RW", "RH", NMFConfig{Topics: 3, MaxIter: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Residual-r2.Residual) > 1e-9 {
		t.Fatalf("re-run changed residual: %v vs %v", r1.Residual, r2.Residual)
	}
	h, err := db.ReadAssoc("RH")
	if err != nil {
		t.Fatal(err)
	}
	// If stale factors summed, the H entries would have doubled.
	for _, e := range h.Entries() {
		if e.Val > float64(corpus.A.NNZ()) {
			t.Fatalf("suspiciously large H entry %v — stale fold?", e.Val)
		}
	}
	if len(h.Rows()) != 3 {
		t.Fatalf("H rows = %v", h.Rows())
	}
}

// TestNMFTopicsMatchesInMemory: the table NMF driver on a written
// corpus must equal algo.NMF on the corpus matrix under the same
// config — residual, W and H, each to a relative 1e-6 — on every
// deployment.
func TestNMFTopicsMatchesInMemory(t *testing.T) {
	corpus := NewTweets(TweetCorpusConfig{NumTweets: 200, Seed: 3})
	cfg := NMFConfig{Topics: 5, MaxIter: 30, Seed: 2}
	m, _, _ := corpus.A.Matrix()
	want := NMF(m, cfg)
	relDiff := func(got, want []float64) float64 {
		num, den := 0.0, 0.0
		for i := range want {
			num += (got[i] - want[i]) * (got[i] - want[i])
			den += want[i] * want[i]
		}
		return math.Sqrt(num / den)
	}
	runThreeWay(t, func(t *testing.T, db *DB) struct{} {
		if err := db.WriteAssoc("Docs", corpus.A); err != nil {
			t.Fatal(err)
		}
		got, err := db.NMFTopics("Docs", "W", "H", cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.Residual-want.Residual) / want.Residual; d > 1e-6 {
			t.Errorf("residual %v, in-memory %v (relative difference %.3g)", got.Residual, want.Residual, d)
		}
		for _, f := range []struct {
			name      string
			got, want *Dense
		}{{"W", got.W, want.W}, {"H", got.H, want.H}} {
			if f.got.R != f.want.R || f.got.C != f.want.C {
				t.Fatalf("%s is %d×%d, in-memory %d×%d", f.name, f.got.R, f.got.C, f.want.R, f.want.C)
			}
			if d := relDiff(f.got.Data, f.want.Data); d > 1e-6 {
				t.Errorf("%s differs from in-memory by a relative %.3g", f.name, d)
			}
		}
		return struct{}{}
	})
}
