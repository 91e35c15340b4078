// Package plan represents server-side kernels as trees of composable
// operator nodes — the NewSQL direction of "From NoSQL Accumulo to
// NewSQL Graphulo": a kernel is no longer a hand-sequenced list of
// table operations but a chain of Scan/Mult/Apply/Reduce/SpAsgn nodes
// under a Write or Collect sink, which a small planner compiles into
// exactly one server-side iterator stack. The planner fuses or
// refuses: a chain it cannot run as one pass (a reduce, apply or
// second multiply over a multiply, any stage over a spAsgn) is a
// compile error naming the operator pair, never an intermediate table.
// A Mult names the plan's one semiring: the ⊗ of its TwoTableIterator,
// the ⊕ of the fold stage over it and a write sink's combiner; the
// sinks name none.
//
// Plans execute through the ordinary scan machinery — Scanner →
// EntryStream → serveScan — so a fused stack runs identically on the
// in-process, TCP, and external-daemon transports, exactly like the
// hand-built kernels it replaces. A pass either writes, returning the
// count RemoteWrite reported, or streams to its caller's visitor
// (Env.Visit): the client keeps no result store of its own.
package plan

import (
	"fmt"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// Constraint restricts a scan to a sub-associative-array — the SpRef
// push-down of §II, and the one band type every kernel takes (the core
// package and the facade re-export it as ScanConstraint). The row band
// is pushed into the scan itself, so only tablets it overlaps execute
// the kernel's iterator stack (pruned tablets count as
// telemetry.TabletsPrunedByRange) and, on a durable cluster, rfile
// row-index and bloom pruning apply; the column-qualifier band runs as a
// server-side filter below the kernel stages (dropped entries count as
// telemetry.EntriesPrunedByRange). The zero value constrains nothing.
type Constraint struct {
	// RowStart/RowEnd bound the scanned rows, half-open [RowStart,
	// RowEnd); "" leaves that side unbounded.
	RowStart, RowEnd string
	// ColQStart/ColQEnd bound column qualifiers, half-open; "" leaves
	// that side unbounded.
	ColQStart, ColQEnd string
	// Families restricts the scan to a column-family set (nil/empty =
	// unconstrained). Unlike the qualifier band, which filters
	// server-side per entry, the family constraint rides the scan
	// request down to storage: tablets serve it from the matching rfile
	// locality groups only, skipping every other family's blocks
	// (telemetry.LocalityBlocksSkipped counts the savings).
	Families []string
}

// rowRange returns the constraint's row band as a scan range.
func (c Constraint) rowRange() skv.Range { return skv.RowRange(c.RowStart, c.RowEnd) }

// colSetting returns the server-side column-qualifier filter setting,
// or ok=false when no column bound is set.
func (c Constraint) colSetting(priority int) (iterator.Setting, bool) {
	if c.ColQStart == "" && c.ColQEnd == "" {
		return iterator.Setting{}, false
	}
	return iterator.Setting{Name: "colRange", Priority: priority, Opts: map[string]string{
		"minColQ": c.ColQStart, "maxColQ": c.ColQEnd,
	}}, true
}

// Op names a plan-node operator.
type Op int

const (
	// OpScan reads a hosted table (optionally a sub-array, optionally an
	// explicit range set such as a BFS frontier).
	OpScan Op = iota
	// OpMult is TableMult's ⊗-and-⊕ stage: the TwoTableIterator over
	// the hosted stream with a remote Aᵀ operand, and the ⊕-fold stage
	// directly over it.
	OpMult
	// OpApply runs per-entry iterator settings (scale, threshold,
	// filters, indicator maps — the Apply/Scale kernels).
	OpApply
	// OpReduce folds each row with a monoid (the Reduce kernel).
	OpReduce
	// OpSpAsgn remaps keys into a destination sub-array by prefixing row
	// and column offsets — the dual of SpRef.
	OpSpAsgn
	// OpWrite streams the upstream entries into a table server-side
	// (RemoteWrite) under the combiner of the chain's multiply ring.
	OpWrite
	// OpCollect streams the upstream entries back to the caller's
	// visitor instead of materialising them in a scratch table.
	OpCollect
)

// String names the operator for explain output.
func (o Op) String() string {
	switch o {
	case OpScan:
		return "scan"
	case OpMult:
		return "mult"
	case OpApply:
		return "apply"
	case OpReduce:
		return "reduce"
	case OpSpAsgn:
		return "spAsgn"
	case OpWrite:
		return "write"
	case OpCollect:
		return "collect"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Node is one operator in a kernel's dataflow tree. Leaves are OpScan;
// the root is a sink (OpWrite or OpCollect). Fields are discriminated
// by Op; use the constructors.
type Node struct {
	Op    Op
	Input *Node // upstream operator; nil for OpScan

	// OpScan
	Table      string
	Ranges     []skv.Range // explicit ranges (frontier rows); empty = Constraint band
	Constraint Constraint

	// OpMult
	TableAT string
	// FamiliesAT bands the remote Aᵀ operand scan to a column-family
	// set (nil = unconstrained): the band rides the nested scan request,
	// so Aᵀ's tablets read only the matching rfile locality groups.
	FamiliesAT []string
	// Semiring names the ⊕.⊗ pair: the ⊗ of the TwoTableIterator, the ⊕
	// of the fold stage over it and of a write sink's combiner.
	Semiring string

	// OpApply
	Settings []iterator.Setting

	// OpReduce
	Monoid, ColF, ColQ string

	// OpSpAsgn
	RowOffset, ColOffset string

	// OpWrite
	OutTable string
}

// Scan reads a table, restricted to the constraint's sub-array.
func Scan(table string, c Constraint) *Node {
	return &Node{Op: OpScan, Table: table, Constraint: c}
}

// ScanRanges reads explicit ranges of a table (e.g. one ExactRow per
// BFS frontier vertex).
func ScanRanges(table string, ranges []skv.Range) *Node {
	return &Node{Op: OpScan, Table: table, Ranges: ranges}
}

// Mult multiplies the input stream (the hosted B operand) against the
// remote Aᵀ table under the named semiring: the Aᵀ·B partial products,
// ⊕-folded per output cell in the one bounded fold stage. The ring is
// the plan's only one: a sink over the chain finishes its ⊕.
func Mult(in *Node, tableAT, semiring string) *Node {
	return MultBanded(in, tableAT, semiring, nil)
}

// MultBanded is Mult with the remote Aᵀ scan constrained to a
// column-family band (the locality-group push-down for the multiply's
// second operand; nil = unconstrained).
func MultBanded(in *Node, tableAT, semiring string, familiesAT []string) *Node {
	if semiring == "" {
		semiring = "plus.times"
	}
	return &Node{Op: OpMult, Input: in, TableAT: tableAT, Semiring: semiring, FamiliesAT: familiesAT}
}

// Apply runs per-entry iterator settings over the input stream.
func Apply(in *Node, settings ...iterator.Setting) *Node {
	return &Node{Op: OpApply, Input: in, Settings: settings}
}

// Reduce folds each row of the input with the monoid, emitting one
// entry per row under (colF, colQ).
func Reduce(in *Node, monoid, colF, colQ string) *Node {
	return &Node{Op: OpReduce, Input: in, Monoid: monoid, ColF: colF, ColQ: colQ}
}

// SpAsgn remaps the input stream into a destination sub-array: row keys
// gain rowOffset as a prefix, column qualifiers gain colOffset.
func SpAsgn(in *Node, rowOffset, colOffset string) *Node {
	return &Node{Op: OpSpAsgn, Input: in, RowOffset: rowOffset, ColOffset: colOffset}
}

// Write sinks the input stream into a table server-side. The table's
// combiner is the ⊕ of the chain's multiply, or sum for a chain
// without one.
func Write(in *Node, table string) *Node {
	return &Node{Op: OpWrite, Input: in, OutTable: table}
}

// Collect sinks the input stream back to the client. Over a multiply it
// ships the fold stage's partially summed cells: a cell may arrive in
// several parts (from several tablets, or after a spill), and the
// caller's visitor finishes the ⊕.
func Collect(in *Node) *Node {
	return &Node{Op: OpCollect, Input: in}
}

// CollectFold is Collect; the ring is the multiply's. It remains only
// because the benchmark ladder (bench/ladder.go) still calls it.
func CollectFold(in *Node, _ string) *Node { return Collect(in) }
