package core

import (
	"fmt"

	"graphulo/internal/accumulo"
	"graphulo/internal/iterator"
	"graphulo/internal/schema"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// This file hosts the incidence-table operations: EdgeBFS (Graphulo's
// breadth-first search over an edge/incidence schema) and the
// table-resident form of the paper's Algorithm 1 (k-truss on incidence
// matrices).

// EdgeBFS runs a k-hop BFS over an incidence schema: per hop, frontier
// vertices pull their incident edges from ET, then the edges pull their
// endpoints from E — two multi-range scans per hop, each one pass per
// overlapping tablet. It runs as one traced query under the cluster's
// default tenant, so admission and budgets apply. Returns vertex → hop
// level, and the set of traversed edge ids.
func EdgeBFS(conn *accumulo.Connector, inc *schema.IncidenceSchema, seeds []string, hops int) (visited map[string]int, edges map[string]bool, err error) {
	q, done, err := startQuery(conn, "EdgeBFS", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	visited = map[string]int{}
	edges = map[string]bool{}
	frontier := append([]string(nil), seeds...)
	for _, s := range seeds {
		visited[s] = 0
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		// Vertices → incident edges via ET.
		var edgeIDs []string
		err := visitRows(conn, inc.TableT, frontier, "EdgeBFS", q, func(e skv.Entry) error {
			if !edges[e.K.ColQ] {
				edges[e.K.ColQ] = true
				edgeIDs = append(edgeIDs, e.K.ColQ)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		// Edges → endpoints via E.
		var next []string
		err = visitRows(conn, inc.Table, edgeIDs, "EdgeBFS", q, func(e skv.Entry) error {
			if _, seen := visited[e.K.ColQ]; !seen {
				visited[e.K.ColQ] = hop
				next = append(next, e.K.ColQ)
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		frontier = next
	}
	return visited, edges, nil
}

// KTrussEdgeTable computes the k-truss on an incidence schema — the
// paper's Algorithm 1 with the heavy products running server-side:
//
//	A = EᵀE − diag      → TableMult(E, E) (rows of E are the inner dim)
//	R = EA              → TableMult(ET, A)
//	s = (R == 2)·1      → OneTable(equalsIndicator ∘ rowReduce)
//	x = find(s < k−2)   → one scan of the small support table
//
// and the surviving edge rows rewritten for the next round (the table
// variant recomputes rather than applying the in-memory incremental
// update, matching Graphulo's loop structure). It writes the final
// incidence matrix to outBase-E/-ET and returns the surviving edge ids.
func KTrussEdgeTable(conn *accumulo.Connector, inc *schema.IncidenceSchema, k int, outBase string) (survivorIDs []string, err error) {
	q, done, err := startQuery(conn, "kTruss", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	ops := conn.TableOperations()
	curE, curET := inc.Table, inc.TableT
	trace := q.Trace().String()
	var scratchTables []string
	defer func() { dropScratch(conn, scratchTables, &err) }()
	for round := 0; ; round++ {
		// Trace-suffixed like every other driver's intermediates, so
		// concurrent k-truss runs over the same outBase never collide —
		// and reclaimed on the way out now that each run names its own.
		scratch := func(name string) string {
			noteScratch(conn)
			t := fmt.Sprintf("%s_%s%d_%s", outBase, name, round, trace)
			scratchTables = append(scratchTables, t)
			return t
		}
		// A = EᵀE with the diagonal dropped at scan time below.
		aTable := scratch("A")
		if ops.Exists(aTable) {
			if err := ops.Delete(aTable); err != nil {
				return nil, err
			}
		}
		if _, err := TableMult(conn, curE, curE, aTable, MultOptions{Query: q}); err != nil {
			return nil, err
		}
		// Strip the diagonal client-side into A' (diag(EᵀE) = degrees).
		aPrime := scratch("Ad")
		if err := copyTableNoDiag(conn, aTable, aPrime, q); err != nil {
			return nil, err
		}
		// R = E·A' via TableMult(ET, A').
		rTable := scratch("R")
		if ops.Exists(rTable) {
			if err := ops.Delete(rTable); err != nil {
				return nil, err
			}
		}
		if _, err := TableMult(conn, curET, aPrime, rTable, MultOptions{Query: q}); err != nil {
			return nil, err
		}
		// s = (R==2)·1 server-side.
		sTable := scratch("S")
		if ops.Exists(sTable) {
			if err := ops.Delete(sTable); err != nil {
				return nil, err
			}
		}
		if _, err := oneTableQ(conn, rTable, sTable, []iterator.Setting{
			{Name: "equalsIndicator", Priority: 30, Opts: map[string]string{"target": "2"}},
			{Name: "rowReduce", Priority: 31, Opts: map[string]string{"monoid": "plus", "colQ": "support"}},
		}, ScanConstraint{}, q); err != nil {
			return nil, err
		}
		support, err := readDegrees(conn, sTable, q)
		if err != nil {
			return nil, err
		}
		// Every current edge; edges absent from s have zero support.
		eEntries, err := scanTable(conn, curE, q)
		if err != nil {
			return nil, err
		}
		edgeSet := map[string]bool{}
		for _, e := range eEntries {
			edgeSet[e.K.Row] = true
		}
		var survivors []string
		removed := false
		for edge := range edgeSet {
			if support[edge] >= float64(k-2) {
				survivors = append(survivors, edge)
			} else {
				removed = true
			}
		}
		if !removed || len(survivors) == 0 {
			// Fixed point (or empty): write the result schema.
			if err := writeSurvivors(conn, eEntries, survivors, outBase+"E", outBase+"ET", q); err != nil {
				return nil, err
			}
			return survivors, nil
		}
		// Rewrite the surviving incidence rows into fresh tables.
		nextE, nextET := scratch("En"), scratch("ETn")
		if err := writeSurvivors(conn, eEntries, survivors, nextE, nextET, q); err != nil {
			return nil, err
		}
		curE, curET = nextE, nextET
	}
}

// writeSurvivors rebuilds eTable and etTable as sum tables holding the
// incidence entries of the surviving edges and their transpose, written
// on behalf of q.
func writeSurvivors(conn *accumulo.Connector, eEntries []skv.Entry, survivors []string, eTable, etTable string, q *telemetry.Query) error {
	for _, name := range []string{eTable, etTable} {
		if err := freshSumTable(conn, name); err != nil {
			return err
		}
	}
	keep := map[string]bool{}
	for _, s := range survivors {
		keep[s] = true
	}
	wE, err := tracedWriter(conn, eTable, q)
	if err != nil {
		return err
	}
	wT, err := tracedWriter(conn, etTable, q)
	if err != nil {
		return err
	}
	for _, e := range eEntries {
		if !keep[e.K.Row] {
			continue
		}
		if err := wE.Put(e.K.Row, "", e.K.ColQ, e.V); err != nil {
			return err
		}
		if err := wT.Put(e.K.ColQ, "", e.K.Row, e.V); err != nil {
			return err
		}
	}
	if err := wE.Close(); err != nil {
		return err
	}
	return wT.Close()
}

// copyTableNoDiag copies a table dropping entries whose row equals the
// column qualifier (the diagonal), reading and writing on behalf of q.
func copyTableNoDiag(conn *accumulo.Connector, in, out string, q *telemetry.Query) error {
	entries, err := scanTable(conn, in, q)
	if err != nil {
		return err
	}
	if err := freshSumTable(conn, out); err != nil {
		return err
	}
	w, err := tracedWriter(conn, out, q)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.K.Row == e.K.ColQ {
			continue
		}
		if err := w.Put(e.K.Row, "", e.K.ColQ, e.V); err != nil {
			return err
		}
	}
	return w.Close()
}

// scanTable reads a whole table on behalf of q.
func scanTable(conn *accumulo.Connector, table string, q *telemetry.Query) ([]skv.Entry, error) {
	sc, err := conn.CreateScanner(table)
	if err != nil {
		return nil, err
	}
	sc.SetTrace(q)
	return sc.Entries()
}
