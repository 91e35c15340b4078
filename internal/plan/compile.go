package plan

import (
	"fmt"
	"strconv"
	"strings"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// scanOpLabel labels a step's scan operator for explain output,
// appending the pushed column-family band when the constraint carries
// one — so `graphulo explain` shows which locality groups the tablets
// will actually read.
func scanOpLabel(source string, c Constraint) string {
	if len(c.Families) == 0 {
		return "scan " + source
	}
	return "scan " + source + " [cf " + strings.Join(c.Families, ",") + "]"
}

// DefaultPreAggBytes is the one fixed budget of the ⊕-fold stage below
// the sink of every multiply chain: 16 MiB holds the distinct output
// cells one tablet pass of a power-law multiply touches at benchmark
// scale while keeping the pass memory-bounded. It is not derived from
// the operands: the buffer holds *output* cells, which an input-sized
// estimate undercounts by the multiply's fan-out.
const DefaultPreAggBytes = 16 << 20

// SinkKind says where a step's surviving entries go.
type SinkKind int

const (
	// SinkWrite streams into a table via RemoteWrite; the client sees
	// only per-tablet monitoring entries.
	SinkWrite SinkKind = iota
	// SinkCollect streams raw entries back to the client.
	SinkCollect
	// SinkCollectFold streams entries back and ⊕-folds them per cell
	// client-side.
	SinkCollectFold
)

// Step is one compiled server-side pass: a single scan of Source
// carrying the fused iterator stack, ending in a sink. Every node fused
// into the step executes inside that one pass — no intermediate table.
type Step struct {
	Source     string
	Ranges     []skv.Range
	Constraint Constraint
	Settings   []iterator.Setting
	Sink       SinkKind
	OutTable   string
	Semiring   string
	BatchSize  int
	// Scratch marks a planner-created intermediate table that Execute
	// drops when the plan finishes.
	Scratch bool
	// Ops labels the operators fused into this step, upstream first,
	// for explain output. A step with any non-scan operator label is a
	// fused group.
	Ops []string
}

// Fused reports whether the step fuses at least one kernel operator
// (mult/apply/reduce/spAsgn) into its scan — i.e. work that a
// materializing driver would have paid a scratch-table round-trip for
// runs inside this single pass instead.
func (s Step) Fused() bool {
	for _, op := range s.Ops {
		switch firstWord(op) {
		case "mult", "apply", "reduce", "spAsgn":
			return true
		}
	}
	return false
}

// Options parameterises compilation.
type Options struct {
	// Kernel names the kernel for explain output and telemetry spans.
	Kernel string
	// ScratchBase and TraceID name materialisation tables:
	// <base>_m<i>_<trace>. The trace suffix keeps concurrent kernels on
	// the same tables from clobbering each other's intermediates.
	ScratchBase string
	TraceID     string
}

// Plan is a compiled kernel: steps execute in order, each one a single
// server-side pass (or a materialisation another step then scans).
type Plan struct {
	Kernel string
	Steps  []Step
}

// ScratchTables returns the planner-created intermediate table names,
// in creation order.
func (p *Plan) ScratchTables() []string {
	var out []string
	for _, s := range p.Steps {
		if s.Scratch {
			out = append(out, s.OutTable)
		}
	}
	return out
}

// FusedGroups counts steps that fuse at least one kernel operator into
// their scan.
func (p *Plan) FusedGroups() int {
	n := 0
	for _, s := range p.Steps {
		if s.Fused() {
			n++
		}
	}
	return n
}

// stage is one chain operator awaiting fusion: its settings (Priority 0
// = assign in chain order) and its label.
type stage struct {
	label    string
	settings []iterator.Setting
	spAsgn   bool
}

// chain is a partially compiled fusible pipeline: a scan of source plus
// the stages stacked over it so far.
type chain struct {
	source     string
	ranges     []skv.Range
	constraint Constraint
	stages     []stage
	hasMult    bool
	semiring   string // semiring of the mult in the chain, if any
}

// Compile lowers a node tree into an executable plan, fusing every
// operator that is expressible as iterators over its upstream scan into
// a single server-side pass.
//
// Fusion rules:
//
//   - Apply and SpAsgn fuse unconditionally (per-entry transforms).
//   - Reduce fuses over a sorted stream (scan/apply/spAsgn chains) but
//     not over a multiply, whose partial-product stream is not grouped
//     by output row — that boundary materialises.
//   - Mult fuses over a sorted stream; a multiply feeding another
//     multiply materialises for the same reason.
//   - SpAsgn placement is the planner's: the remap is hoisted to sit
//     directly below the sink, so SpRef filters and kernel stages see
//     source coordinates and the offset copy itself never round-trips.
//   - Write and Collect terminate the fused stack (RemoteWrite or the
//     wire back to the client); over a multiply, a Write or folding
//     Collect gets the bounded ⊕-fold stage directly below it.
func Compile(root *Node, opts Options) (*Plan, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: nil root")
	}
	if root.Op != OpWrite && root.Op != OpCollect {
		return nil, fmt.Errorf("plan: root must be a Write or Collect sink, got %s", root.Op)
	}
	p := &Plan{Kernel: opts.Kernel}
	c, err := compileNode(root.Input, p, opts)
	if err != nil {
		return nil, err
	}
	switch root.Op {
	case OpWrite:
		sem := root.Semiring
		if sem == "" {
			sem = "plus.times"
		}
		step := finalize(c, SinkWrite, root.OutTable, sem, root.BatchSize, foldBudget(root.PreAggBytes, c))
		step.Ops = append(step.Ops, "write "+root.OutTable)
		p.Steps = append(p.Steps, step)
	case OpCollect:
		sink, budget, label := SinkCollect, 0, "collect"
		if root.Fold {
			sink, budget, label = SinkCollectFold, foldBudget(0, c), "collect ⊕-fold"
		}
		step := finalize(c, sink, "", root.Semiring, 0, budget)
		step.Ops = append(step.Ops, label+" [streams to client, no scratch table]")
		p.Steps = append(p.Steps, step)
	}
	return p, nil
}

// compileNode lowers the subtree under n into a fusible chain, emitting
// materialisation steps into p wherever fusion is illegal.
func compileNode(n *Node, p *Plan, opts Options) (chain, error) {
	if n == nil {
		return chain{}, fmt.Errorf("plan: operator chain ends without a Scan leaf")
	}
	switch n.Op {
	case OpScan:
		return chain{source: n.Table, ranges: n.Ranges, constraint: n.Constraint}, nil

	case OpApply:
		c, err := compileNode(n.Input, p, opts)
		if err != nil {
			return chain{}, err
		}
		c.stages = append(c.stages, stage{label: applyLabel(n.Settings), settings: n.Settings})
		return c, nil

	case OpSpAsgn:
		c, err := compileNode(n.Input, p, opts)
		if err != nil {
			return chain{}, err
		}
		c.stages = append(c.stages, stage{
			label:  fmt.Sprintf("spAsgn row+%q col+%q", n.RowOffset, n.ColOffset),
			spAsgn: true,
			settings: []iterator.Setting{{Name: "spAsgn", Opts: map[string]string{
				"rowOffset": n.RowOffset, "colOffset": n.ColOffset,
			}}},
		})
		return c, nil

	case OpReduce:
		c, err := compileNode(n.Input, p, opts)
		if err != nil {
			return chain{}, err
		}
		if c.hasMult {
			// Partial products are not grouped by output row; the reduce
			// needs a sorted rescan of the materialised result.
			c, err = materialize(c, p, opts)
			if err != nil {
				return chain{}, err
			}
		}
		c.stages = append(c.stages, stage{
			label: fmt.Sprintf("reduce %s→%s", n.Monoid, n.ColQ),
			settings: []iterator.Setting{{Name: "rowReduce", Opts: map[string]string{
				"monoid": n.Monoid, "colF": n.ColF, "colQ": n.ColQ,
			}}},
		})
		return c, nil

	case OpMult:
		c, err := compileNode(n.Input, p, opts)
		if err != nil {
			return chain{}, err
		}
		if c.hasMult {
			// A multiply's output stream is not sorted by row, but the
			// TwoTableIterator aligns on a sorted hosted stream.
			c, err = materialize(c, p, opts)
			if err != nil {
				return chain{}, err
			}
		}
		label := fmt.Sprintf("mult ⊗ %s (%s)", n.TableAT, n.Semiring)
		multOpts := map[string]string{"tableAT": n.TableAT, "semiring": n.Semiring}
		if len(n.FamiliesAT) > 0 {
			multOpts["familiesAT"] = iterator.EncodeFamiliesOpt(n.FamiliesAT)
			label += " [cf " + strings.Join(n.FamiliesAT, ",") + "]"
		}
		c.stages = append(c.stages, stage{
			label:    label,
			settings: []iterator.Setting{{Name: "twoTable", Opts: multOpts}},
		})
		c.hasMult = true
		c.semiring = n.Semiring
		return c, nil

	case OpWrite, OpCollect:
		return chain{}, fmt.Errorf("plan: %s node in the middle of a chain (sinks terminate plans)", n.Op)
	}
	return chain{}, fmt.Errorf("plan: unknown operator %d", int(n.Op))
}

// materialize spills the chain into a scratch table and returns a fresh
// chain scanning it — the only place a plan touches an intermediate.
func materialize(c chain, p *Plan, opts Options) (chain, error) {
	base := opts.ScratchBase
	if base == "" {
		base = "plan"
	}
	name := fmt.Sprintf("%s_m%d_%s", base, len(p.Steps), opts.TraceID)
	sem := c.semiring
	if sem == "" {
		sem = "plus.times"
	}
	step := finalize(c, SinkWrite, name, sem, 4096, foldBudget(0, c))
	step.Scratch = true
	step.Ops = append(step.Ops, "materialize "+name+" [scratch table]")
	p.Steps = append(p.Steps, step)
	return chain{source: name}, nil
}

// finalize assembles a chain into one executable step: the constraint's
// column filter at priority 25, the fused stages (spAsgn hoisted last)
// from 30 upward, the fold stage (preAggBytes > 0) at 89 and — for
// write sinks — RemoteWrite at 90.
func finalize(c chain, sink SinkKind, outTable, semiring string, batchSize, preAggBytes int) Step {
	step := Step{
		Source:     c.source,
		Ranges:     c.ranges,
		Constraint: c.constraint,
		Sink:       sink,
		OutTable:   outTable,
		Semiring:   semiring,
		BatchSize:  batchSize,
		Ops:        []string{scanOpLabel(c.source, c.constraint)},
	}
	if colFilter, ok := c.constraint.colSetting(25); ok {
		step.Settings = append(step.Settings, colFilter)
	}
	prio := 30
	addStage := func(st stage) {
		step.Ops = append(step.Ops, st.label)
		for _, s := range st.settings {
			if s.Priority == 0 {
				s.Priority = prio
				prio++
			}
			step.Settings = append(step.Settings, s)
		}
	}
	// SpAsgn placement: the remap runs last, directly below the sink, so
	// every other stage sees source coordinates.
	for _, st := range c.stages {
		if !st.spAsgn {
			addStage(st)
		}
	}
	for _, st := range c.stages {
		if st.spAsgn {
			addStage(st)
		}
	}
	if preAggBytes > 0 {
		step.Ops = append(step.Ops, fmt.Sprintf("fold ⊕ %s ≤%s", semiring, byteLabel(preAggBytes)))
		step.Settings = append(step.Settings, iterator.Setting{Name: "fold", Priority: 89, Opts: map[string]string{
			"semiring": semiring, "bytes": strconv.Itoa(preAggBytes),
		}})
	}
	if sink == SinkWrite {
		opts := map[string]string{"table": outTable}
		if batchSize > 0 {
			opts["batchSize"] = strconv.Itoa(batchSize)
		}
		step.Settings = append(step.Settings, iterator.Setting{Name: "remoteWrite", Priority: 90, Opts: opts})
	}
	return step
}

// foldBudget resolves a sink's fold-stage budget: the caller's when
// positive, none when negative, and otherwise DefaultPreAggBytes under a
// multiply. Chains without a multiply carry at most one entry per input
// cell, so there is nothing to fold and no stage is placed.
func foldBudget(requested int, c chain) int {
	if requested == 0 && c.hasMult {
		return DefaultPreAggBytes
	}
	return max(requested, 0)
}

// byteLabel renders a byte budget, in MiB when it is a whole number of
// them.
func byteLabel(n int) string {
	if n%(1<<20) == 0 {
		return fmt.Sprintf("%d MiB", n>>20)
	}
	return fmt.Sprintf("%d B", n)
}

// applyLabel compresses an Apply node's settings into one label.
func applyLabel(settings []iterator.Setting) string {
	if len(settings) == 0 {
		return "apply"
	}
	names := ""
	for i, s := range settings {
		if i > 0 {
			names += ","
		}
		names += s.Name
	}
	return "apply " + names
}
