package schema

import (
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

func conn(t *testing.T) *accumulo.Connector {
	t.Helper()
	return accumulo.NewMiniCluster(accumulo.Config{TabletServers: 2, MemLimit: 128}).Connector()
}

func TestVertexNameRoundTrip(t *testing.T) {
	for _, v := range []int{0, 7, 99999999} {
		got, err := ParseVertex(VertexName(v))
		if err != nil || got != v {
			t.Fatalf("round trip %d → %v (%v)", v, got, err)
		}
	}
	if _, err := ParseVertex("bogus"); err == nil {
		t.Fatalf("expected error")
	}
	// Lexicographic order matches numeric order.
	if !(VertexName(2) < VertexName(10)) {
		t.Fatalf("zero padding broken")
	}
}

func TestAdjacencySchemaIngestUndirected(t *testing.T) {
	c := conn(t)
	s, err := NewAdjacencySchema(c, "G")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.IngestGraph(gen.PaperGraph()); err != nil {
		t.Fatal(err)
	}
	a, err := ReadAssoc(c, s.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 6 undirected edges → 12 directed entries.
	if a.NNZ() != 12 {
		t.Fatalf("adjacency nnz = %d, want 12", a.NNZ())
	}
	if a.At(VertexName(0), VertexName(1)) != 1 || a.At(VertexName(1), VertexName(0)) != 1 {
		t.Fatalf("edge (0,1) missing")
	}
	// Degree table: vertex 0 has degree 3.
	sc, _ := c.CreateScanner(s.DegTable)
	entries, _ := sc.Entries()
	degs := map[string]float64{}
	for _, e := range entries {
		v, _ := skv.DecodeFloat(e.V)
		degs[e.K.Row] = v
	}
	if degs[VertexName(0)] != 3 || degs[VertexName(4)] != 1 {
		t.Fatalf("degrees = %v", degs)
	}
}

func TestMultiEdgeWeightsAccumulate(t *testing.T) {
	c := conn(t)
	s, err := NewAdjacencySchema(c, "W")
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Graph{N: 2, Edges: []gen.Edge{{U: 0, V: 1}, {U: 0, V: 1}, {U: 0, V: 1}}}
	if err := s.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	a, _ := ReadAssoc(c, s.Table, nil)
	if a.At(VertexName(0), VertexName(1)) != 3 {
		t.Fatalf("multi-edge weight = %v, want 3 (sum combiner)", a.At(VertexName(0), VertexName(1)))
	}
}

func TestWriteReadAssocRoundTrip(t *testing.T) {
	c := conn(t)
	if err := c.TableOperations().Create("RT"); err != nil {
		t.Fatal(err)
	}
	a := assoc.New([]assoc.Entry{
		{Row: "r1", Col: "c1", Val: 1.5}, {Row: "r2", Col: "c2", Val: -2},
	}, semiring.PlusTimes)
	if err := WriteAssoc(c, "RT", a.Entries(), nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAssoc(c, "RT", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.At("r1", "c1") != 1.5 || got.At("r2", "c2") != -2 {
		t.Fatalf("round trip wrong:\n%v", got)
	}
}

func TestD4MSchema(t *testing.T) {
	c := conn(t)
	d, err := NewD4M(c, "T")
	if err != nil {
		t.Fatal(err)
	}
	records := []Record{
		{ID: "r1", Fields: map[string]string{"color": "red", "size": "L"}},
		{ID: "r2", Fields: map[string]string{"color": "red", "size": "S"}},
		{ID: "r3", Fields: map[string]string{"color": "blue"}},
	}
	if err := d.Ingest(records); err != nil {
		t.Fatal(err)
	}
	// Tedge: r1 has columns color|red and size|L.
	te, err := ReadAssoc(c, d.Tedge, nil)
	if err != nil {
		t.Fatal(err)
	}
	if te.At("r1", "color|red") != 1 || te.At("r1", "size|L") != 1 {
		t.Fatalf("Tedge wrong:\n%v", te)
	}
	// TedgeT is the transpose.
	tt, err := ReadAssoc(c, d.TedgeT, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tt.At("color|red", "r1") != 1 || tt.At("color|red", "r2") != 1 {
		t.Fatalf("TedgeT wrong:\n%v", tt)
	}
	// Tdeg counts: color|red appears twice.
	degs, err := d.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if degs["color|red"] != 2 || degs["color|blue"] != 1 {
		t.Fatalf("degrees = %v", degs)
	}
	// Traw keeps the flattened record.
	raw, err := d.Raw("r1")
	if err != nil {
		t.Fatal(err)
	}
	if raw != "color=red,size=L" {
		t.Fatalf("raw = %q", raw)
	}
	if _, err := d.Raw("nosuch"); err == nil {
		t.Fatalf("expected error for missing record")
	}
}

// D4M facet search: multiplying TedgeT × Tedge correlates columns — the
// "multiplication of two arrays represents a correlation" property of
// §II.B.3.
func TestD4MCorrelation(t *testing.T) {
	c := conn(t)
	d, err := NewD4M(c, "C")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest([]Record{
		{ID: "r1", Fields: map[string]string{"color": "red", "size": "L"}},
		{ID: "r2", Fields: map[string]string{"color": "red", "size": "L"}},
		{ID: "r3", Fields: map[string]string{"color": "blue", "size": "L"}},
	}); err != nil {
		t.Fatal(err)
	}
	tt, _ := ReadAssoc(c, d.TedgeT, nil)
	te, _ := ReadAssoc(c, d.Tedge, nil)
	corr := assoc.Multiply(tt, te)
	// color|red co-occurs with size|L twice.
	if corr.At("color|red", "size|L") != 2 {
		t.Fatalf("correlation wrong:\n%v", corr)
	}
	if corr.At("color|blue", "size|L") != 1 {
		t.Fatalf("correlation wrong:\n%v", corr)
	}
}
