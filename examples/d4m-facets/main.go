// D4M 2.0 schema demo (§II.B.3): explode dense records into the
// four-table schema and answer facet queries with associative-array
// correlation ("multiplication of two arrays represents a correlation").
//
//	go run ./examples/d4m-facets
package main

import (
	"fmt"
	"log"

	"graphulo"
	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/schema"
)

func main() {
	mc := accumulo.NewMiniCluster(accumulo.Config{TabletServers: 2})
	conn := mc.Connector()
	d4m, err := schema.NewD4M(conn, "Net")
	if err != nil {
		log.Fatal(err)
	}

	// Network-flow-style records, the kind of data D4M was built for.
	records := []schema.Record{
		{ID: "f001", Fields: map[string]string{"src": "10.0.0.1", "dst": "10.0.0.9", "proto": "tcp"}},
		{ID: "f002", Fields: map[string]string{"src": "10.0.0.1", "dst": "10.0.0.7", "proto": "udp"}},
		{ID: "f003", Fields: map[string]string{"src": "10.0.0.2", "dst": "10.0.0.9", "proto": "tcp"}},
		{ID: "f004", Fields: map[string]string{"src": "10.0.0.1", "dst": "10.0.0.9", "proto": "tcp"}},
		{ID: "f005", Fields: map[string]string{"src": "10.0.0.3", "dst": "10.0.0.9", "proto": "icmp"}},
	}
	if err := d4m.Ingest(records); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d records into %s/%s/%s/%s\n",
		len(records), d4m.Tedge, d4m.TedgeT, d4m.Tdeg, d4m.Traw)

	// Tdeg answers "which column values are common?" in one scan.
	degs, err := d4m.Degrees()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("column degrees (Tdeg):")
	for _, col := range []string{"src|10.0.0.1", "dst|10.0.0.9", "proto|tcp"} {
		fmt.Printf("  %-14s %v\n", col, degs[col])
	}

	// Correlation: TedgeTᵀ? No — TedgeT × Tedge correlates facet values
	// by co-occurrence across records.
	tt, err := schema.ReadAssoc(conn, d4m.TedgeT, nil)
	if err != nil {
		log.Fatal(err)
	}
	te, err := schema.ReadAssoc(conn, d4m.Tedge, nil)
	if err != nil {
		log.Fatal(err)
	}
	corr := assoc.Multiply(tt, te)
	fmt.Printf("src|10.0.0.1 co-occurs with dst|10.0.0.9 in %v flows\n",
		corr.At("src|10.0.0.1", "dst|10.0.0.9"))
	fmt.Printf("proto|tcp co-occurs with dst|10.0.0.9 in %v flows\n",
		corr.At("proto|tcp", "dst|10.0.0.9"))

	// Raw record retrieval from Traw.
	raw, err := d4m.Raw("f003")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Traw[f003] = %s\n", raw)

	// The same correlation via the public facade (union-add, too).
	a := graphulo.NewAssoc([]graphulo.AssocEntry{{Row: "x", Col: "y", Val: 1}}, graphulo.PlusTimes)
	b := graphulo.NewAssoc([]graphulo.AssocEntry{{Row: "x", Col: "z", Val: 2}}, graphulo.PlusTimes)
	fmt.Println("assoc union-add of disjoint keys:")
	fmt.Println(graphulo.AssocAdd(a, b))
}
