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
	// SinkCollect streams entries back to the client's visitor (Env.Visit),
	// through the ⊕-fold stage when the step carries one.
	SinkCollect
)

// Step is the one compiled server-side pass: a single scan of Source
// carrying the fused iterator stack, ending in a sink. Every node of
// the plan executes inside that one pass — no intermediate table.
type Step struct {
	Source     string
	Ranges     []skv.Range
	Constraint Constraint
	Settings   []iterator.Setting
	Sink       SinkKind
	OutTable   string
	Semiring   string
	// Ops labels the operators fused into this step, upstream first,
	// for explain output. A step with any non-scan operator label is a
	// fused group.
	Ops []string
}

// Fused reports whether the step fuses at least one kernel operator
// (mult/apply/reduce/spAsgn) into its scan.
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
	// ScratchBase and TraceID are ignored: a plan is one pass and never
	// creates an intermediate table. They remain only because the
	// benchmark ladder (bench/ladder.go) still sets them.
	ScratchBase string
	TraceID     string
}

// Plan is a compiled kernel: exactly one server-side pass.
type Plan struct {
	Kernel string
	Step   Step
}

// stage is one chain operator awaiting fusion: its settings (Priority 0
// = assign in chain order) and its label.
type stage struct {
	label    string
	settings []iterator.Setting
}

// chain is a partially compiled pipeline: a scan of source plus the
// stages stacked over it so far.
type chain struct {
	source     string
	ranges     []skv.Range
	constraint Constraint
	stages     []stage
	hasMult    bool
}

// Compile lowers a node tree into a plan of exactly one server-side
// pass, or returns an error naming the operator pair that cannot share
// one. The planner fuses or refuses; it never materialises.
//
// Fusion rules:
//
//   - Apply, Reduce, Mult and SpAsgn fuse over a scan and over each
//     other, in tree order, except as below.
//   - Nothing but SpAsgn or a sink fuses over a Mult. Its partial
//     products are neither sorted nor grouped by output row, so a Reduce
//     or a second Mult cannot align on them, and an Apply would sit
//     below the ⊕-fold stage and judge unfolded products instead of
//     cells.
//   - Nothing but a sink fuses over a SpAsgn: the remap passes seeks
//     through in source coordinates, so it must be the last stage.
//   - Write and Collect terminate the stack (RemoteWrite or the wire
//     back to the client); over a multiply, a Write or folding Collect
//     gets the bounded ⊕-fold stage directly below it.
func Compile(root *Node, opts Options) (*Plan, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: nil root")
	}
	if root.Op != OpWrite && root.Op != OpCollect {
		return nil, fmt.Errorf("plan: root must be a Write or Collect sink, got %s", root.Op)
	}
	c, err := compileNode(root.Input)
	if err != nil {
		return nil, err
	}
	var step Step
	switch root.Op {
	case OpWrite:
		sem := root.Semiring
		if sem == "" {
			sem = "plus.times"
		}
		step = finalize(c, SinkWrite, root.OutTable, sem, foldBudget(root.PreAggBytes, c))
		step.Ops = append(step.Ops, "write "+root.OutTable)
	case OpCollect:
		budget, label := 0, "collect"
		if root.Fold {
			budget, label = foldBudget(0, c), "collect ⊕-fold"
		}
		step = finalize(c, SinkCollect, "", root.Semiring, budget)
		step.Ops = append(step.Ops, label+" [streams to client, no scratch table]")
	}
	return &Plan{Kernel: opts.Kernel, Step: step}, nil
}

// compileNode lowers the subtree under n into a chain of stages over
// one scan.
func compileNode(n *Node) (chain, error) {
	if n == nil {
		return chain{}, fmt.Errorf("plan: operator chain ends without a Scan leaf")
	}
	switch n.Op {
	case OpScan:
		return chain{source: n.Table, ranges: n.Ranges, constraint: n.Constraint}, nil
	case OpWrite, OpCollect:
		return chain{}, fmt.Errorf("plan: %s node in the middle of a chain (sinks terminate plans)", n.Op)
	}
	c, err := compileNode(n.Input)
	if err != nil {
		return chain{}, err
	}
	if err := unfusible(n); err != nil {
		return chain{}, err
	}
	var st stage
	switch n.Op {
	case OpApply:
		st = stage{label: applyLabel(n.Settings), settings: n.Settings}
	case OpSpAsgn:
		st = stage{
			label: fmt.Sprintf("spAsgn row+%q col+%q", n.RowOffset, n.ColOffset),
			settings: []iterator.Setting{{Name: "spAsgn", Opts: map[string]string{
				"rowOffset": n.RowOffset, "colOffset": n.ColOffset,
			}}},
		}
	case OpReduce:
		st = stage{
			label: fmt.Sprintf("reduce %s→%s", n.Monoid, n.ColQ),
			settings: []iterator.Setting{{Name: "rowReduce", Opts: map[string]string{
				"monoid": n.Monoid, "colF": n.ColF, "colQ": n.ColQ,
			}}},
		}
	case OpMult:
		label := fmt.Sprintf("mult ⊗ %s (%s)", n.TableAT, n.Semiring)
		multOpts := map[string]string{"tableAT": n.TableAT, "semiring": n.Semiring}
		if len(n.FamiliesAT) > 0 {
			multOpts["familiesAT"] = iterator.EncodeFamiliesOpt(n.FamiliesAT)
			label += " [cf " + strings.Join(n.FamiliesAT, ",") + "]"
		}
		st = stage{label: label, settings: []iterator.Setting{{Name: "twoTable", Opts: multOpts}}}
		c.hasMult = true
	default:
		return chain{}, fmt.Errorf("plan: unknown operator %d", int(n.Op))
	}
	c.stages = append(c.stages, st)
	return c, nil
}

// unfusible returns the error naming the operator pair when n cannot
// run in the same pass as its input, or nil when it fuses.
func unfusible(n *Node) error {
	pair := n.Op.String() + " over " + n.Input.Op.String()
	switch {
	case n.Input.Op == OpSpAsgn:
		return fmt.Errorf("plan: cannot fuse %s: spAsgn passes seeks through in source coordinates, so only a sink may sit over it", pair)
	case n.Input.Op != OpMult || n.Op == OpSpAsgn:
		return nil
	case n.Op == OpApply:
		return fmt.Errorf("plan: cannot fuse %s: the apply would sit below the ⊕-fold stage and judge unfolded partial products, not cells (needs a post-fold stage)", pair)
	}
	return fmt.Errorf("plan: cannot fuse %s: partial products are not sorted by output row", pair)
}

// finalize assembles a chain into one executable step: the constraint's
// column filter at priority 25, the fused stages in chain order from 30
// upward, the fold stage (preAggBytes > 0) at 89 and — for
// write sinks — RemoteWrite at 90.
func finalize(c chain, sink SinkKind, outTable, semiring string, preAggBytes int) Step {
	step := Step{
		Source:     c.source,
		Ranges:     c.ranges,
		Constraint: c.constraint,
		Sink:       sink,
		OutTable:   outTable,
		Semiring:   semiring,
		Ops:        []string{scanOpLabel(c.source, c.constraint)},
	}
	if colFilter, ok := c.constraint.colSetting(25); ok {
		step.Settings = append(step.Settings, colFilter)
	}
	prio := 30
	for _, st := range c.stages {
		step.Ops = append(step.Ops, st.label)
		for _, s := range st.settings {
			if s.Priority == 0 {
				s.Priority = prio
				prio++
			}
			step.Settings = append(step.Settings, s)
		}
	}
	if preAggBytes > 0 {
		step.Ops = append(step.Ops, fmt.Sprintf("fold ⊕ %s ≤%s", semiring, byteLabel(preAggBytes)))
		step.Settings = append(step.Settings, iterator.Setting{Name: "fold", Priority: 89, Opts: map[string]string{
			"semiring": semiring, "bytes": strconv.Itoa(preAggBytes),
		}})
	}
	if sink == SinkWrite {
		step.Settings = append(step.Settings, iterator.Setting{Name: "remoteWrite", Priority: 90, Opts: map[string]string{"table": outTable}})
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
