// Package core implements the paper's primary contribution: GraphBLAS
// kernels that execute inside the NoSQL database through server-side
// iterators — Graphulo. TableMult is SpGEMM between tables (results
// flow tablet→tablet without visiting the client); OneTable covers
// Apply/Scale/filter; TableRowReduce is the Reduce kernel; on top of
// these sit the table-resident graph algorithms (BFS, degree, k-truss,
// Jaccard, NMF staging).
//
// # Execution model
//
// A kernel call is one scan over the hosted table carrying the kernel's
// iterator stack. The scan executes as a streaming pipeline: each of the
// table's tablets runs the stack — remote-source alignment, ⊗ products,
// the bounded ⊕-fold stage, RemoteWrite — where the tablet lives, and up to
// ScanParallelism tablets execute concurrently, matching the paper's
// §I.A/§IV data flow in which tablet servers work in parallel and
// results move tablet→tablet. The client consumes a cursor of
// monitoring entries (one per tablet, carrying the count written), so
// kernel memory on every side is bounded by wire batches and the fold
// stage's fixed budget: the remote
// side of a TwoTableIterator is itself a streaming scan, not a
// materialised copy of the operand table. Drivers that do read data
// back (degree vectors, peel sets) consume the same cursor API and fold
// entries as they arrive.
package core

import (
	"fmt"

	"graphulo/internal/accumulo"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// ScanConstraint restricts a kernel to a sub-associative-array (SpRef):
// it is the plan layer's band type, declared once in plan.Constraint.
type ScanConstraint = plan.Constraint

// MultOptions configures TableMult.
type MultOptions struct {
	// Semiring names the ⊕.⊗ pair (default "plus.times"). The ⊗ runs in
	// the TwoTableIterator; the ⊕ is the summing combiner on the result
	// table and, before that, the fold stage below RemoteWrite.
	Semiring string
	// Constraint restricts the multiply to a sub-array: RowStart/RowEnd
	// bound the inner dimension (the rows of both Aᵀ and B — only B
	// tablets overlapping the band execute the kernel, and each pass
	// seeds its remote Aᵀ scan with the same band so Aᵀ's tablets and
	// rfiles prune too); ColQStart/ColQEnd bound B's column qualifiers,
	// i.e. C's columns.
	Constraint ScanConstraint
	// PreAggBytes bounds the fold stage's buffer. 0 is
	// DefaultPreAggBytes; negative places no fold stage; a small positive
	// value forces constant spilling. It is a test hook: results are
	// cell-identical whatever the value, only write volume changes.
	PreAggBytes int
	// Tenant labels the query for budgets and per-tenant telemetry
	// ("" = the cluster's default tenant).
	Tenant string
}

// planEnv builds the execution environment plans run under: the
// connector, the kernel's telemetry query, and result-table preparation
// through ensureResultTable (injected as a closure so the plan package
// stays independent of core).
func planEnv(conn *accumulo.Connector, q *telemetry.Query) plan.Env {
	return plan.Env{
		Conn:  conn,
		Query: q,
		EnsureTable: func(table, ringName string) error {
			ring, ok := semiring.ByName(ringName)
			if !ok {
				return fmt.Errorf("core: unknown semiring %q", ringName)
			}
			return ensureResultTable(conn, table, ring)
		},
	}
}

// runPlan compiles and executes a node tree under the kernel's query.
// A non-nil visit streams a collect's entries to the caller as they
// arrive instead of accumulating them in the result.
func runPlan(conn *accumulo.Connector, root *plan.Node, kernel string, q *telemetry.Query, visit func(skv.Entry) error) (*plan.Result, error) {
	p, err := plan.Compile(root, plan.Options{Kernel: kernel})
	if err != nil {
		return nil, err
	}
	env := planEnv(conn, q)
	env.Visit = visit
	return p.Execute(env)
}

// startQuery mints the per-kernel telemetry query a kernel call runs
// under, admitted through the cluster's query scheduler under tenant
// ("" = the cluster's default tenant); done finishes it. A scheduler
// rejection (admission queue full) surfaces as a *sched.AdmissionError
// and the kernel never starts.
func startQuery(conn *accumulo.Connector, kernel, tenant string) (*telemetry.Query, func(error), error) {
	return conn.Cluster().StartKernelQuery(kernel, tenant)
}

// TableMult computes C ⊕= Aᵀ·B entirely server-side: table tableAT must
// hold Aᵀ (rows = inner dimension); a scan over tableB's tablets runs
// the TwoTableIterator (⊗ and alignment), the fold stage that ⊕-folds
// its partial products per output cell, and a RemoteWriteIterator that
// streams the folded cells into tableC, whose matching combiner
// performs the final ⊕. Returns the number of entries written into
// tableC (without a fold stage, the raw partial-product count).
//
// The scan honours opts.Constraint: a row band restricts the inner
// dimension and is pushed down both to B's tablets and each pass's
// remote Aᵀ scan, so a sub-matrix multiply touches only overlapping
// tablets of either operand.
//
// This is the Graphulo TableMult data flow: the client only triggers the
// scan and reads back one monitoring entry per tablet.
func TableMult(conn *accumulo.Connector, tableAT, tableB, tableC string, opts MultOptions) (written int, err error) {
	q, done, err := startQuery(conn, "TableMult", opts.Tenant)
	if err != nil {
		return
	}
	defer func() { done(err) }()
	if opts.Semiring == "" {
		opts.Semiring = "plus.times"
	}
	if _, ok := semiring.ByName(opts.Semiring); !ok {
		return 0, fmt.Errorf("core: unknown semiring %q", opts.Semiring)
	}
	ops := conn.TableOperations()
	for _, t := range []string{tableAT, tableB} {
		if !ops.Exists(t) {
			return 0, fmt.Errorf("core: input table %q does not exist", t)
		}
	}
	res, err := runPlan(conn, multPlan(tableAT, tableB, tableC, opts), "TableMult", q, nil)
	if err != nil {
		return 0, err
	}
	return res.Written, nil
}

// multPlan is TableMult's node tree — one fused scan-mult-fold-write
// pass — shared with Explain so the printed plan is the executed plan.
func multPlan(tableAT, tableB, tableC string, opts MultOptions) *plan.Node {
	return plan.Write(
		plan.Mult(plan.Scan(tableB, opts.Constraint), tableAT, opts.Semiring),
		tableC, opts.Semiring, opts.PreAggBytes)
}

// combinerForRing names the combiner iterator implementing a semiring's
// ⊕ on a result table.
func combinerForRing(ring semiring.Semiring) string {
	switch ring.Name {
	case "min.plus", "min.max":
		return "min"
	case "max.plus", "max.min":
		return "max"
	case "or.and":
		return "max" // OR over {0,1} is max
	default:
		return "sum"
	}
}

// combinerNames is the set of iterator names that fold a cell's
// versions with an ⊕ — derived from combinerForRing over the standard
// semirings so it cannot drift when new rings map to new combiners. A
// result table must carry exactly the kernel's.
var combinerNames = func() map[string]bool {
	names := map[string]bool{}
	for _, ring := range semiring.Standard() {
		names[combinerForRing(ring)] = true
	}
	return names
}()

// ensureResultTable makes tableC a valid ⊕ target for the semiring:
// created with the matching combiner when absent, and — the case that
// used to silently drop ⊕ — verified and upgraded when it already
// exists. A pre-created table still carrying the default versioning
// iterator keeps only the last write per cell, so TableMult partial
// products would overwrite instead of summing; here the versioning
// iterator is replaced with the semiring's combiner. A table configured
// with a different combiner is a hard error rather than a silently
// wrong answer.
func ensureResultTable(conn *accumulo.Connector, tableC string, ring semiring.Semiring) error {
	ops := conn.TableOperations()
	combiner := combinerForRing(ring)
	if !ops.Exists(tableC) {
		if err := ops.Create(tableC); err != nil {
			return err
		}
		if err := ops.RemoveIterator(tableC, "versioning"); err != nil {
			return err
		}
		return ops.AttachIterator(tableC, iterator.Setting{Name: combiner, Priority: 10})
	}
	// Verify every scope before mutating any: a conflict at one scope
	// must leave the user's table exactly as it was, not half-upgraded.
	type install struct {
		scope accumulo.Scope
		prio  int
	}
	var installs []install
	for _, scope := range accumulo.AllScopes {
		settings, err := ops.IteratorSettings(tableC, scope)
		if err != nil {
			return err
		}
		present := false
		usedPriority := map[int]bool{}
		for _, s := range settings {
			usedPriority[s.Priority] = true
			if s.Name == combiner {
				present = true
				continue
			}
			if combinerNames[s.Name] {
				return fmt.Errorf("core: result table %q already has combiner %q (scope %d), conflicting with required %q",
					tableC, s.Name, scope, combiner)
			}
		}
		if present {
			continue
		}
		prio := 10
		for usedPriority[prio] {
			prio++
		}
		installs = append(installs, install{scope: scope, prio: prio})
	}
	for _, in := range installs {
		if err := ops.RemoveIterator(tableC, "versioning", in.scope); err != nil {
			return err
		}
		if err := ops.AttachIterator(tableC, iterator.Setting{Name: combiner, Priority: in.prio}, in.scope); err != nil {
			return err
		}
	}
	return nil
}

// TableMultClient is the thin-client baseline the Graphulo execution
// model argues against (the §IV ablation): it scans both operand tables
// to the client, multiplies there, and writes the result back through a
// BatchWriter. Same answer, but every operand entry crosses the wire.
func TableMultClient(conn *accumulo.Connector, tableAT, tableB, tableC string, opts MultOptions) (written int, err error) {
	q, done, err := startQuery(conn, "TableMultClient", opts.Tenant)
	if err != nil {
		return
	}
	defer func() { done(err) }()
	if opts.Semiring == "" {
		opts.Semiring = "plus.times"
	}
	ring, ok := semiring.ByName(opts.Semiring)
	if !ok {
		return 0, fmt.Errorf("core: unknown semiring %q", opts.Semiring)
	}
	if err := ensureResultTable(conn, tableC, ring); err != nil {
		return 0, err
	}
	scanRows := func(table string) (map[string][]skv.Entry, error) {
		sc, err := conn.CreateScanner(table)
		if err != nil {
			return nil, err
		}
		sc.SetTrace(q)
		st, err := sc.Stream()
		if err != nil {
			return nil, err
		}
		defer st.Close()
		rows := map[string][]skv.Entry{}
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			rows[e.K.Row] = append(rows[e.K.Row], e)
		}
		return rows, st.Err()
	}
	at, err := scanRows(tableAT)
	if err != nil {
		return 0, err
	}
	b, err := scanRows(tableB)
	if err != nil {
		return 0, err
	}
	w, err := conn.CreateBatchWriter(tableC, accumulo.BatchWriterConfig{})
	if err != nil {
		return 0, err
	}
	w.SetTrace(q)
	for inner, aEntries := range at {
		bEntries, ok := b[inner]
		if !ok {
			continue
		}
		for _, ae := range aEntries {
			av, ok := skv.DecodeFloat(ae.V)
			if !ok {
				continue
			}
			for _, be := range bEntries {
				bv, ok := skv.DecodeFloat(be.V)
				if !ok {
					continue
				}
				p := ring.Mul(av, bv)
				if ring.IsZero(p) {
					continue
				}
				if err := w.PutFloat(ae.K.ColQ, "", be.K.ColQ, p); err != nil {
					return written, err
				}
				written++
			}
		}
	}
	return written, w.Close()
}

// OneTable applies per-scan iterator settings to a scan of tableIn and
// writes the surviving entries into tableOut server-side (via
// RemoteWrite). Use it for the Apply/Scale/filter kernels on tables,
// e.g. settings = [{Name:"scale", Opts:{"factor":"2"}}]. A non-zero
// constraint runs it over a sub-array: the row band is pushed into the
// scan (only overlapping tablets run the stack) and the column band
// filters server-side below the settings.
func OneTable(conn *accumulo.Connector, tableIn, tableOut string, settings []iterator.Setting, c ScanConstraint) (n int, err error) {
	q, done, err := startQuery(conn, "OneTable", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	return oneTableQ(conn, tableIn, tableOut, settings, c, q)
}

// oneTableQ is the OneTable executor under an existing query record —
// the entry point for composite kernels that own their trace. It runs
// as a single fused scan-apply-write plan step.
func oneTableQ(conn *accumulo.Connector, tableIn, tableOut string, settings []iterator.Setting, c ScanConstraint, q *telemetry.Query) (int, error) {
	res, err := runPlan(conn, oneTablePlan(tableIn, tableOut, settings, c), "OneTable", q, nil)
	if err != nil {
		return 0, err
	}
	return res.Written, nil
}

// oneTablePlan is OneTable's node tree: apply stages fused over the
// scan, sunk into the output table with no fold stage (a chain without
// a multiply carries at most one entry per input cell, so there is
// nothing to fold).
func oneTablePlan(tableIn, tableOut string, settings []iterator.Setting, c ScanConstraint) *plan.Node {
	var n *plan.Node = plan.Scan(tableIn, c)
	if len(settings) > 0 {
		n = plan.Apply(n, settings...)
	}
	return plan.Write(n, tableOut, "plus.times", 0)
}

// TableRowReduce folds each row of tableIn with the monoid ("plus",
// "min", or "max") and writes one entry per row into tableOut — the
// server-side Reduce kernel. Building a degree table from an adjacency
// table is TableRowReduce(conn, "A", "ADeg", "plus", "", "deg",
// ScanConstraint{}). tableOut should be fresh: like any combiner-backed
// table, existing entries fold together with the new ones. A non-zero
// constraint reduces a sub-array: rows outside the band never run the
// reduce, and a column band reduces only the selected qualifiers of each
// row.
func TableRowReduce(conn *accumulo.Connector, tableIn, tableOut, monoid, colF, colQ string, c ScanConstraint) (n int, err error) {
	q, done, err := startQuery(conn, "TableRowReduce", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	res, err := runPlan(conn, rowReducePlan(tableIn, tableOut, monoid, colF, colQ, c), "TableRowReduce", q, nil)
	if err != nil {
		return 0, err
	}
	return res.Written, nil
}

// rowReducePlan is TableRowReduce's node tree: the reduce fuses over
// the scan (its input is row-sorted), one pass end to end.
func rowReducePlan(tableIn, tableOut, monoid, colF, colQ string, c ScanConstraint) *plan.Node {
	return plan.Write(
		plan.Reduce(plan.Scan(tableIn, c), monoid, colF, colQ),
		tableOut, "plus.times", 0)
}

// TableAssign writes a sub-array of tableIn into a destination
// sub-array of tableOut with offset remapping — SpAsgn, the dual of the
// SpRef push-down: C(p+i, q+j) ⊕= A(i, j) for the constrained (i, j).
// The whole kernel is one fused pass: the constraint prunes and filters
// in source coordinates, the spAsgn iterator prefixes rowOffset/
// colOffset directly below the RemoteWrite sink, and nothing touches
// the client or a scratch table.
func TableAssign(conn *accumulo.Connector, tableIn, tableOut, rowOffset, colOffset string, c ScanConstraint) (n int, err error) {
	q, done, err := startQuery(conn, "TableAssign", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	if !conn.TableOperations().Exists(tableIn) {
		return 0, fmt.Errorf("core: input table %q does not exist", tableIn)
	}
	res, err := runPlan(conn, assignPlan(tableIn, tableOut, rowOffset, colOffset, c), "TableAssign", q, nil)
	if err != nil {
		return 0, err
	}
	return res.Written, nil
}

// assignPlan is TableAssign's node tree, shared with Explain.
func assignPlan(tableIn, tableOut, rowOffset, colOffset string, c ScanConstraint) *plan.Node {
	return plan.Write(
		plan.SpAsgn(plan.Scan(tableIn, c), rowOffset, colOffset),
		tableOut, "plus.times", 0)
}

// TableSum unions the input tables into tableOut under a summing
// combiner: the associative-array addition of §II.A executed as
// server-side copies.
func TableSum(conn *accumulo.Connector, inputs []string, tableOut string) (total int, err error) {
	q, done, err := startQuery(conn, "TableSum", "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	for _, in := range inputs {
		n, err := oneTableQ(conn, in, tableOut, nil, ScanConstraint{}, q)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}
