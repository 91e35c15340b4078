package core

import (
	"fmt"
	"math"

	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/plan"
	"graphulo/internal/schema"
	"graphulo/internal/skv"
)

// PageRankTableResult reports a table-resident PageRank run.
type PageRankTableResult struct {
	Ranks      map[string]float64
	Iterations int
	Converged  bool
}

// PageRankTable runs PageRank with the adjacency matrix staying in the
// database: the degrees are A's row sums, reduced server-side
// (degreesPlan), and every power-iteration step is one server-side pass
// over A itself, multiplied against the client-written vector x/d and
// ⊕-folded on its way back (rankStepPlan). The D⁻¹ scaling is applied
// to the O(V) rank vector, never to A, so only the vector crosses the
// wire per iteration — the Graphulo division of labour for iterative
// algorithms.
//
// alpha is the jump probability (paper convention: the principal
// eigenvector of α/N·1 + (1−α)AᵀD⁻¹).
func PageRankTable(conn *accumulo.Connector, table string, alpha, tol float64, maxIter int) (res PageRankTableResult, err error) {
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
	// Vertex set and degrees: A's row sums, reduced server-side.
	degs, err := collectDegrees(conn, table, "PageRank", q)
	if err != nil {
		return PageRankTableResult{}, err
	}
	if len(degs) == 0 {
		return PageRankTableResult{}, fmt.Errorf("core: PageRank over %q: no edges", table)
	}
	n := float64(len(degs))

	// The rank vector is trace-suffixed, so concurrent runs over one
	// graph never share it, and dropped on the way out, on success and
	// on error. It is made once, last-write-wins: every iteration
	// rewrites the same vertex set, so each write replaces the rank the
	// previous iteration left.
	vec := table + "_prV_" + q.Trace().String()
	noteScratch(conn)
	defer dropScratch(conn, []string{vec}, &err)
	if err := conn.TableOperations().Create(vec); err != nil {
		return PageRankTableResult{}, err
	}

	// Rank vector, initialised uniform.
	x := make(map[string]float64, len(degs))
	for v := range degs {
		x[v] = 1 / n
	}
	for it := 1; it <= maxIter; it++ {
		scaled := make([]assoc.Entry, 0, len(x))
		for v, r := range x {
			if d := degs[v]; d != 0 {
				scaled = append(scaled, assoc.Entry{Row: v, Col: "r", Val: r / d})
			}
		}
		if err := schema.WriteAssoc(conn, vec, scaled, q); err != nil {
			return PageRankTableResult{}, err
		}
		// y[u] = Σ_v A[v][u]·x[v]/d[v], multiplied server-side and
		// ⊕-folded on its way back.
		walked := make(map[string]float64, len(x))
		_, err := runPlan(conn, rankStepPlan(table, vec), "PageRank", q, func(e skv.Entry) error {
			v, ok := skv.DecodeFloat(e.V)
			if !ok {
				return fmt.Errorf("core: PageRank: entry %v carries non-numeric rank %q", e.K, string(e.V))
			}
			walked[e.K.ColQ] += v
			return nil
		})
		if err != nil {
			return PageRankTableResult{}, err
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

// rankStepPlan is one power-iteration step: A's edge band, the hosted
// side, multiplied against the scaled rank vector, read remotely one
// tablet's row band at a time. The product y[u] lands in cell (r, u)
// and streams back ⊕-folded. Shared with Explain.
func rankStepPlan(table, vec string) *plan.Node {
	return plan.Collect(plan.Mult(plan.Scan(table, plan.Constraint{Families: schema.EdgeBand()}), vec, "plus.times"))
}
