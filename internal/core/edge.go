package core

import (
	"fmt"

	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/plan"
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
// paper's Algorithm 1 — by running the adjacency k-truss loop on the
// pattern E describes. Algorithm 1's steps map onto that loop as
//
//	A = EᵀE − diag        → the 0/1 pattern of every two-endpoint edge
//	                        of E, written once to a scratch table
//	R = EA, s = (R==2)·1  → the masked support pass C⟨A⟩ = A ⊕.⊗ A
//	                        (edgeSupportPlan), one per peel round
//	x = find(s < k−2)     → the loop's survivor filter
//
// R(e, w) = A(u, w) + A(v, w) for edge e = (u, v), so R(e, w) == 2
// exactly when w closes a triangle on e, and s(e) = C(u, v): the two
// supports are equal on a simple graph. On a multigraph they are not —
// A = EᵀE − diag stores a repeated pair as 2, which breaks R == 2 — and
// the pattern, like algo.KTrussAdj, counts the repeated edge once.
//
// An edge id survives when its endpoint pair is in the truss (for
// k < 3, every edge survives). The surviving incidence rows are written
// to outBase-E/-ET, and the surviving edge ids returned. The adjacency
// scratch table `<outBase>_A_<trace>` and the loop's per-round tables
// are deleted before returning, on success and on error.
func KTrussEdgeTable(conn *accumulo.Connector, inc *schema.IncidenceSchema, k int, outBase string) (survivorIDs []string, err error) {
	q, done, err := startQuery(conn, "kTruss", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	res, err := runPlan(conn, plan.Collect(plan.Scan(inc.Table, plan.Constraint{})), "kTruss", q, nil)
	if err != nil {
		return nil, err
	}
	endpoints := map[string][]string{}
	var ids []string
	for _, e := range res.Entries {
		if endpoints[e.K.Row] == nil {
			ids = append(ids, e.K.Row)
		}
		endpoints[e.K.Row] = append(endpoints[e.K.Row], e.K.ColQ)
	}
	var truss map[[2]string]bool
	if k >= 3 {
		if truss, err = edgeIncidenceTruss(conn, q, endpoints, k, outBase); err != nil {
			return nil, err
		}
	}
	for _, id := range ids {
		uv := endpoints[id]
		if k < 3 || len(uv) == 2 && truss[[2]string{uv[0], uv[1]}] {
			survivorIDs = append(survivorIDs, id)
		}
	}
	if err := writeSurvivors(conn, res.Entries, survivorIDs, outBase+"E", outBase+"ET", q); err != nil {
		return nil, err
	}
	return survivorIDs, nil
}

// edgeIncidenceTruss writes the adjacency pattern of the two-endpoint
// edges to a trace-suffixed scratch table, runs kTrussLoop on it, and
// returns the truss as a set of ordered endpoint pairs (both
// orientations of every surviving edge).
func edgeIncidenceTruss(conn *accumulo.Connector, q *telemetry.Query, endpoints map[string][]string, k int, outBase string) (truss map[[2]string]bool, err error) {
	adj := fmt.Sprintf("%s_A_%s", outBase, q.Trace())
	noteScratch(conn)
	defer dropScratch(conn, []string{adj}, &err)
	// An incidence row's endpoints arrive in key order, so a repeated
	// pair has the same key whichever edge id carries it.
	seen := map[[2]string]bool{}
	var entries []assoc.Entry
	for _, uv := range endpoints {
		if len(uv) != 2 || seen[[2]string{uv[0], uv[1]}] {
			continue
		}
		seen[[2]string{uv[0], uv[1]}] = true
		entries = append(entries, assoc.Entry{Row: uv[0], Col: uv[1], Val: 1}, assoc.Entry{Row: uv[1], Col: uv[0], Val: 1})
	}
	if err := freshSumTable(conn, adj); err != nil {
		return nil, err
	}
	if err := writeEntries(conn, adj, entries, q); err != nil {
		return nil, err
	}
	survivors, _, err := kTrussLoop(conn, q, adj, k, outBase)
	if err != nil {
		return nil, err
	}
	truss = make(map[[2]string]bool, len(survivors))
	for _, e := range survivors {
		truss[[2]string{e.Row, e.Col}] = true
	}
	return truss, nil
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
