package core

import (
	"fmt"
	"strconv"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/assoc"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
	"graphulo/internal/telemetry"
)

// This file hosts the table-resident graph algorithms: the paper's
// Section III algorithms driven against database tables, using the core
// table kernels where the heavy data movement is and the client only
// for orchestration and small dense state — the Graphulo division of
// labour.

// AdjBFSOptions configures a table BFS.
type AdjBFSOptions struct {
	// MinDegree/MaxDegree filter expansion through the degree table
	// (Graphulo's AdjBFS degree filtering); 0 disables a bound.
	MinDegree float64
	MaxDegree float64
	// DegTable is required when a degree bound is set. It is read in
	// the degree band (schema.DegBand), so on a durable cluster the read
	// touches only the matching rfile locality groups.
	DegTable string
	// RowStart/RowEnd restrict the search to a row band (sub-graph BFS,
	// the SpRef form of the frontier expansion): vertices outside
	// [RowStart, RowEnd) are neither expanded nor visited, so frontier
	// scans never touch tablets outside the band. "" leaves that side
	// unbounded.
	RowStart, RowEnd string
	// Tenant labels the query for budgets and per-tenant telemetry
	// ("" = the cluster's default tenant).
	Tenant string
}

// inBand reports whether a vertex row key lies in the options' row band.
func (o AdjBFSOptions) inBand(v string) bool {
	if o.RowStart != "" && v < o.RowStart {
		return false
	}
	if o.RowEnd != "" && v >= o.RowEnd {
		return false
	}
	return true
}

// AdjBFS runs a k-hop breadth-first search over an adjacency table:
// each hop reads the frontier's rows in one multi-range scan of the edge
// band (bfsHopPlan: one exact-row range per frontier vertex, one pass
// per overlapping tablet), unions the neighbours, and removes
// already-visited vertices. It returns the visited vertex → hop-level
// map.
func AdjBFS(conn *accumulo.Connector, table string, seeds []string, hops int, opts AdjBFSOptions) (visited map[string]int, err error) {
	q, done, err := startQuery(conn, "AdjBFS", opts.Tenant)
	if err != nil {
		return
	}
	defer func() { done(err) }()
	degOK := func(string) bool { return true }
	if opts.MinDegree > 0 || opts.MaxDegree > 0 {
		if opts.DegTable == "" {
			return nil, fmt.Errorf("core: degree bounds need DegTable")
		}
		degs, err := readDegrees(conn, opts.DegTable, q)
		if err != nil {
			return nil, err
		}
		degOK = func(v string) bool {
			d := degs[v]
			if opts.MinDegree > 0 && d < opts.MinDegree {
				return false
			}
			if opts.MaxDegree > 0 && d > opts.MaxDegree {
				return false
			}
			return true
		}
	}
	visited = map[string]int{}
	frontier := make([]string, 0, len(seeds))
	for _, s := range seeds {
		if !opts.inBand(s) {
			continue
		}
		visited[s] = 0
		frontier = append(frontier, s)
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		// The visitor folds neighbour entries into the visited set as they
		// arrive, so a hop never materialises the expansion (which can
		// approach the edge count on dense frontiers).
		var next []string
		_, err := runPlan(conn, bfsHopPlan(table, frontier), "AdjBFS", q, func(e skv.Entry) error {
			nb := e.K.ColQ
			if _, seen := visited[nb]; seen {
				return nil
			}
			if !opts.inBand(nb) || !degOK(nb) {
				return nil
			}
			visited[nb] = hop
			next = append(next, nb)
			return nil
		})
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	return visited, nil
}

// bfsHopPlan is one AdjBFS hop: the frontier's rows, one exact-row range
// per vertex, collected in the edge band — so a degree or other
// channel's cell stored beside a vertex's edges (the D4M single-table
// layout) is never mistaken for a neighbour. Shared with Explain.
func bfsHopPlan(table string, frontier []string) *plan.Node {
	ranges := make([]skv.Range, len(frontier))
	for i, v := range frontier {
		ranges[i] = skv.ExactRow(v)
	}
	scan := plan.ScanRanges(table, ranges)
	scan.Constraint.Families = schema.EdgeBand()
	return plan.Collect(scan)
}

// readDegrees folds a degree table into row → value, keeping a row's
// last numeric value. It is one collect pass over the degree band
// (schema.DegBand), so on a mixed table the scan touches only the
// matching locality groups.
func readDegrees(conn *accumulo.Connector, table string, q *telemetry.Query) (map[string]float64, error) {
	degs := map[string]float64{}
	_, err := runPlan(conn, plan.Collect(plan.Scan(table, plan.Constraint{Families: schema.DegBand()})), "AdjBFS", q,
		func(e skv.Entry) error {
			if v, ok := skv.DecodeFloat(e.V); ok {
				degs[e.K.Row] = v
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return degs, nil
}

// dropScratch deletes the scratch tables a driver created, folding the
// first delete failure into err when the driver itself succeeded.
// Drivers defer it so intermediates are reclaimed on success and error
// paths alike.
func dropScratch(conn *accumulo.Connector, names []string, err *error) {
	ops := conn.TableOperations()
	for _, name := range names {
		if !ops.Exists(name) {
			continue
		}
		if derr := ops.Delete(name); derr != nil && *err == nil {
			*err = fmt.Errorf("core: dropping scratch table %q: %w", name, derr)
		}
	}
}

// noteScratch counts a driver-materialised intermediate table in the
// cluster metrics — the round-trip the fused drivers exist to avoid.
func noteScratch(conn *accumulo.Connector) {
	conn.Cluster().Telemetry().Stats.Add(telemetry.ScratchTablesCreated, 1)
}

// adjSquareFoldPlan is Jaccard's one pass: A ⊕.⊗ A under plus.and, so
// cell (u, v) counts the common neighbours of u and v on the 0/1
// pattern — an edge ingested twice (stored as 2) counts once — and the
// diagonal cell (u, u) is u's degree. The multiply's partial products
// stream from the TwoTableIterator through the fold stage straight back
// to the caller's visitor, which finishes the ⊕; no scratch table holds
// A². Shared with Explain.
//
// Both sides of the multiply scan an adjacency table, so both carry the
// edge-channel family band: the hosted B scan through the step's
// constraint, the remote Aᵀ scan through the twoTable setting — on
// locality-grouped rfiles neither touches degree or other channels'
// blocks.
func adjSquareFoldPlan(table string) *plan.Node {
	band := schema.EdgeBand()
	return plan.CollectFold(
		plan.MultBanded(plan.Scan(table, plan.Constraint{Families: band}), table, "plus.and", band),
		"plus.and")
}

// edgeSupport is the triangle support of every edge of an adjacency
// table A, shared by kTruss (per round) and TriangleCount: A ⊕.⊗ A ⟨A⟩
// under plus.and, so cell (u, v) of an edge counts the common
// neighbours of u and v on the 0/1 pattern (an edge ingested twice,
// stored as 2, counts once). iterator.SupportIterator forms each cell
// once and whole on the tablet hosting row u; an edge in no triangle
// does not appear.
func edgeSupport(table string) *plan.Node {
	band := schema.EdgeBand()
	opts := map[string]string{"table": table, "families": iterator.EncodeFamiliesOpt(band)}
	return plan.Apply(plan.Scan(table, plan.Constraint{Families: band}), iterator.Setting{Name: "support", Opts: opts})
}

// edgeSupportPlan is TriangleCount's one pass: the edge support summed
// per row by the rowReduce fused over it, so the client reads one count
// per vertex in a triangle (twice that vertex's triangles), not one per
// edge. Shared with Explain.
func edgeSupportPlan(table string) *plan.Node {
	return plan.Collect(plan.Reduce(edgeSupport(table), "plus", "", "tri"))
}

// trussRoundPlan is one kTruss peel round: the edge support of cur
// written server-side into the round table next. Shared with Explain.
func trussRoundPlan(cur, next string) *plan.Node {
	return plan.Write(edgeSupport(cur), next, "plus.and", 0)
}

// KTruss computes the k-truss of the graph stored in an adjacency table
// and returns the surviving adjacency pattern (both orientations of
// every edge, value 1) and the number of peel rounds. Round r creates
// the round table `<scratch>_it<r>_<trace>` with the graph table's
// splits and runs one fused pass (trussRoundPlan) that writes the
// support of cur's edges into it, each cell once; one collect then
// reads the round table back. An edge of cur missing from it is in no
// triangle of cur (cur is symmetric, so it is its own transpose), so
// removing it removes no triangle: if every present cell has support
// ≥ k−2, the round table's cells are the k-truss and KTruss returns
// their pattern. Otherwise a threshold at k−2 is attached to the round
// table's scan scope only — storage keeps every cell as written — and
// the thresholded table is the next round's cur. A graph that is
// already a k-truss takes one round, and k = 3 always does. The round
// tables are trace-suffixed, so concurrent kernels on one table cannot
// collide, and dropped before returning, on success and on error.
func KTruss(conn *accumulo.Connector, table string, k int, scratch string) (truss *assoc.Assoc, iterCount int, err error) {
	q, done, err := startQuery(conn, "kTruss", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	if k < 3 {
		// Every graph is its own 2-truss, edges in no triangle included —
		// which a support pass never reports.
		var edges []assoc.Entry
		_, err := runPlan(conn, plan.Collect(plan.Scan(table, plan.Constraint{Families: schema.EdgeBand()})), "kTruss", q,
			func(e skv.Entry) error {
				if _, ok := skv.DecodeFloat(e.V); ok {
					edges = append(edges, assoc.Entry{Row: e.K.Row, Col: e.K.ColQ})
				}
				return nil
			})
		if err != nil {
			return nil, 0, err
		}
		return patternOf(edges), 1, nil
	}
	trace := q.Trace().String()
	ops := conn.TableOperations()
	// Every round table is made with the graph table's splits, so each
	// round runs on as many tablets as round 0.
	splits, err := ops.Splits(table)
	if err != nil {
		return nil, 0, err
	}
	minSupport := float64(k - 2)
	threshold := iterator.Setting{Name: "threshold", Priority: 20, Opts: map[string]string{"min": strconv.Itoa(k - 2)}}
	cur := table
	var scratchTables []string
	// Closure, not a direct defer: the slice grows as rounds allocate
	// scratch tables and must be read at return time.
	defer func() { dropScratch(conn, scratchTables, &err) }()
	var edges []assoc.Entry
	for round := 0; ; round++ {
		next := fmt.Sprintf("%s_it%d_%s", scratch, round, trace)
		scratchTables = append(scratchTables, next)
		noteScratch(conn)
		if err := ops.CreateWithSplits(next, splits); err != nil {
			return nil, iterCount, err
		}
		if _, err := runPlan(conn, trussRoundPlan(cur, next), "kTruss", q, nil); err != nil {
			return nil, iterCount, err
		}
		iterCount++
		edges = edges[:0]
		peels := false
		_, err = runPlan(conn, plan.Collect(plan.Scan(next, plan.Constraint{})), "kTruss", q,
			func(e skv.Entry) error {
				support, ok := skv.DecodeFloat(e.V)
				if !ok {
					return fmt.Errorf("core: kTruss round table %q: entry %v carries non-numeric support %q", next, e.K, string(e.V))
				}
				peels = peels || support < minSupport
				edges = append(edges, assoc.Entry{Row: e.K.Row, Col: e.K.ColQ})
				return nil
			})
		if err != nil {
			return nil, iterCount, err
		}
		if !peels {
			return patternOf(edges), iterCount, nil
		}
		if err := ops.AttachIterator(next, threshold, accumulo.ScanScope); err != nil {
			return nil, iterCount, err
		}
		cur = next
	}
}

// patternOf is the 0/1 associative array over the entries' (row, col)
// cells: a cell listed more than once — stored under both edge-band
// families, say — is still 1.
func patternOf(entries []assoc.Entry) *assoc.Assoc {
	seen := make(map[[2]string]bool, len(entries))
	cells := make([]assoc.Entry, 0, len(entries))
	for _, e := range entries {
		if c := [2]string{e.Row, e.Col}; !seen[c] {
			seen[c] = true
			cells = append(cells, assoc.Entry{Row: e.Row, Col: e.Col, Val: 1})
		}
	}
	return assoc.New(cells, semiring.PlusTimes)
}

// Jaccard computes Jaccard coefficients for the graph in an adjacency
// table as one query of one pass streaming to the client: the fused
// A² under plus.and (adjSquareFoldPlan, ⊕-folded at the client instead
// of materialised in a numerator table) holds the common-neighbour
// counts off its diagonal and the degrees on it, both on the 0/1
// pattern. Only the strict upper triangle (by key order) is returned,
// matching Algorithm 2's output shape. No table is created.
func Jaccard(conn *accumulo.Connector, table string) (jac *assoc.Assoc, err error) {
	q, done, err := startQuery(conn, "Jaccard", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	// Finish the ⊕ per (row, colQ) before normalising, as a table read
	// would: the normalisation is not linear in the count.
	degs := map[string]float64{}
	common := map[[2]string]float64{}
	_, err = runPlan(conn, adjSquareFoldPlan(table), "Jaccard", q, func(e skv.Entry) error {
		v, ok := skv.DecodeFloat(e.V)
		if !ok {
			return fmt.Errorf("core: Jaccard: entry %v carries non-numeric count %q", e.K, string(e.V))
		}
		switch {
		case e.K.Row == e.K.ColQ:
			degs[e.K.Row] += v
		case e.K.Row < e.K.ColQ: // upper triangle only
			common[[2]string{e.K.Row, e.K.ColQ}] += v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := assoc.NewBuilder(semiring.PlusTimes)
	for c, n := range common {
		if union := degs[c[0]] + degs[c[1]] - n; union > 0 {
			b.Add(c[0], c[1], n/union)
		}
	}
	return b.Build(), nil
}

// NMFTable stages the paper's Algorithm 5 against a table: the sparse
// document×term matrix is read from the table (the only full-size
// transfer), factorised with the GraphBLAS NMF, and the W and H factors
// are written back to wTable and hTable. The k×k dense solves stay
// client-side, as in Graphulo's NMF.
func NMFTable(conn *accumulo.Connector, table, wTable, hTable string, cfg algo.NMFConfig) (res algo.NMFResult, err error) {
	q, done, err := startQuery(conn, "NMF", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	a, err := schema.ReadAssoc(conn, table, q)
	if err != nil {
		return algo.NMFResult{}, err
	}
	m, docs, terms := a.Matrix()
	res = algo.NMF(m, cfg)
	ops := conn.TableOperations()
	for _, spec := range []struct {
		name string
		d    *sparse.Dense
		rows []string
		cols []string
	}{
		{wTable, res.W, docs, topicNames(cfg.Topics)},
		{hTable, res.H, topicNames(cfg.Topics), terms},
	} {
		// Rebuild the factor tables from scratch: a stale table's cells
		// would outlive the new factors.
		if ops.Exists(spec.name) {
			if err := ops.Delete(spec.name); err != nil {
				return res, err
			}
		}
		if err := ops.Create(spec.name); err != nil {
			return res, err
		}
		var entries []assoc.Entry
		for i := 0; i < spec.d.R; i++ {
			for j := 0; j < spec.d.C; j++ {
				if v := spec.d.At(i, j); v > 1e-12 {
					entries = append(entries, assoc.Entry{Row: spec.rows[i], Col: spec.cols[j], Val: v})
				}
			}
		}
		if err := schema.WriteAssoc(conn, spec.name, entries, q); err != nil {
			return res, err
		}
	}
	return res, nil
}

func topicNames(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("topic%02d", i)
	}
	return out
}

// Degrees returns every vertex's degree — the sum of its edge-band
// values — reduced server-side by the rowReduce iterator and streamed
// back (degreesPlan). No table is created.
func Degrees(conn *accumulo.Connector, table string) (degs map[string]float64, err error) {
	q, done, err := startQuery(conn, "Degrees", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	return collectDegrees(conn, table, "Degrees", q)
}

// degreesPlan reduces each row of an adjacency table's edge band to one
// degree cell in the degree channel and streams it to the client. A row
// lives in one tablet, so each vertex arrives once. Shared with Explain.
func degreesPlan(table string) *plan.Node {
	return plan.Collect(plan.Reduce(plan.Scan(table, plan.Constraint{Families: schema.EdgeBand()}),
		"plus", schema.DegFamily, "deg"))
}

// collectDegrees runs degreesPlan under q and folds it into row → degree.
func collectDegrees(conn *accumulo.Connector, table, kernel string, q *telemetry.Query) (map[string]float64, error) {
	degs := map[string]float64{}
	_, err := runPlan(conn, degreesPlan(table), kernel, q, func(e skv.Entry) error {
		if v, ok := skv.DecodeFloat(e.V); ok {
			degs[e.K.Row] += v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return degs, nil
}

// TriangleCountTable counts triangles in the graph held by an adjacency
// table in one fused pass: the edge support (A² ∘ A on the 0/1 pattern)
// is summed per row server-side (edgeSupportPlan) and streams back one
// count per vertex. Every triangle is counted once per directed edge,
// so the count is Σ support / 6. No scratch table is created.
func TriangleCountTable(conn *accumulo.Connector, table string) (count float64, err error) {
	q, done, err := startQuery(conn, "TriangleCount", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	_, err = runPlan(conn, edgeSupportPlan(table), "TriangleCount", q, func(e skv.Entry) error {
		support, ok := skv.DecodeFloat(e.V)
		if !ok {
			return fmt.Errorf("core: TriangleCount: entry %v carries non-numeric support %q", e.K, string(e.V))
		}
		count += support
		return nil
	})
	if err != nil {
		return 0, err
	}
	return count / 6, nil
}
