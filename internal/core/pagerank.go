package core

import (
	"fmt"
	"math"

	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/schema"
)

// PageRankTableResult reports a table-resident PageRank run.
type PageRankTableResult struct {
	Ranks      map[string]float64
	Iterations int
	Converged  bool
}

// PageRankTable runs PageRank with the adjacency matrix staying in the
// database: the column-stochastic walk matrix Mᵀ = D⁻¹A is materialised
// once server-side (OneTable with the rowScale iterator over the degree
// table), and every power-iteration step is a server-side multiply of
// Mᵀ with the current rank-vector table whose ⊕-folded product streams
// back to the client (rankStepPlan). Only the rank vector (O(V)
// entries) crosses the wire per iteration — the Graphulo division of
// labour for iterative algorithms.
//
// alpha is the jump probability (paper convention: the principal
// eigenvector of α/N·1 + (1−α)AᵀD⁻¹).
func PageRankTable(conn *accumulo.Connector, table, degTable string, alpha, tol float64, maxIter int) (res PageRankTableResult, err error) {
	q, done, err := startQuery(conn, "PageRank", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	if tol <= 0 {
		tol = 1e-10
	}
	if maxIter <= 0 {
		maxIter = 200
	}
	// Vertex set and dangling detection from the degree table.
	degs, err := readDegrees(conn, degTable, q)
	if err != nil {
		return PageRankTableResult{}, err
	}
	if len(degs) == 0 {
		return PageRankTableResult{}, fmt.Errorf("core: empty degree table %q", degTable)
	}
	n := float64(len(degs))

	// The walk matrix and the rank vector are trace-suffixed, so
	// concurrent runs over one graph never share them, and dropped on
	// the way out, on success and on error.
	trace := q.Trace().String()
	mt, vec := table+"_prMT_"+trace, table+"_prV_"+trace
	scratch := []string{mt, vec}
	for range scratch {
		noteScratch(conn)
	}
	defer dropScratch(conn, scratch, &err)

	// Mᵀ = D⁻¹A, built once server-side.
	if _, err := oneTableQ(conn, table, mt, []iterator.Setting{
		{Name: "rowScale", Priority: 30, Opts: map[string]string{
			"table": degTable, "families": iterator.EncodeFamiliesOpt(schema.DegBand()),
		}},
	}, ScanConstraint{Families: schema.EdgeBand()}, q); err != nil {
		return PageRankTableResult{}, err
	}

	// Rank vector, initialised uniform.
	x := make(map[string]float64, len(degs))
	for v := range degs {
		x[v] = 1 / n
	}
	for it := 1; it <= maxIter; it++ {
		// Rewrite the vector from scratch: a stale rank would fold into
		// the new one under the sum combiner.
		if err := freshSumTable(conn, vec); err != nil {
			return PageRankTableResult{}, err
		}
		ranks := make([]assoc.Entry, 0, len(x))
		for v, r := range x {
			ranks = append(ranks, assoc.Entry{Row: v, Col: "r", Val: r})
		}
		if err := writeEntries(conn, vec, ranks, q); err != nil {
			return PageRankTableResult{}, err
		}
		// y[u] = Σ_v Mᵀ[v][u]·x[v], multiplied server-side and ⊕-folded
		// on its way back.
		res, err := runPlan(conn, rankStepPlan(mt, vec), "PageRank", q, nil)
		if err != nil {
			return PageRankTableResult{}, err
		}
		walked := make(map[string]float64, len(res.Cells))
		for c, v := range res.Cells {
			walked[c.Row] += v
		}
		// Teleport + dangling mass client-side (O(V) work on the small
		// vector, per the paper's "summing the vector entries" note).
		dangling := 0.0
		for v, r := range x {
			if degs[v] == 0 {
				dangling += r
			}
		}
		uniform := (alpha + (1-alpha)*dangling) / n
		delta := 0.0
		nextX := make(map[string]float64, len(x))
		for v := range degs {
			nv := uniform + (1-alpha)*walked[v]
			nextX[v] = nv
			delta += math.Abs(nv - x[v])
		}
		x = nextX
		if delta < tol {
			return PageRankTableResult{Ranks: x, Iterations: it, Converged: true}, nil
		}
	}
	return PageRankTableResult{Ranks: x, Iterations: maxIter, Converged: false}, nil
}

// rankStepPlan is one power-iteration step: the rank vector multiplied
// against the walk matrix Mᵀ, streamed back ⊕-folded per vertex.
func rankStepPlan(mt, vec string) *plan.Node {
	return plan.CollectFold(plan.Mult(plan.Scan(vec, plan.Constraint{}), mt, "plus.times"), "plus.times")
}
