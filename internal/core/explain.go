package core

import (
	"fmt"
	"strings"

	"graphulo/internal/iterator"
	"graphulo/internal/plan"
)

// ExplainPlan compiles the named kernel's plan over table (writing to
// out where the kernel writes) and renders the node tree with fused
// groups marked — the same builder functions the drivers execute, so
// the printed plan is the executed plan. Compilation reads nothing from
// a cluster, so none is needed.
//
// Kernels: ExplainKernels.
func ExplainPlan(kernel, table, out string) (string, error) {
	p, err := explainCompile(kernel, table, out)
	if err != nil {
		return "", err
	}
	return p.Format(), nil
}

// explainCompile compiles the named kernel's plan as ExplainPlan prints
// it.
func explainCompile(kernel, table, out string) (*plan.Plan, error) {
	var root *plan.Node
	var name string
	switch strings.ToLower(kernel) {
	case "mult":
		name = "TableMult"
		root = multPlan(table+"T", table, out, MultOptions{Semiring: "plus.times"})
	case "apply", "onetable":
		name = "OneTable"
		root = oneTablePlan(table, out,
			[]iterator.Setting{{Name: "scale", Opts: map[string]string{"factor": "2"}}}, ScanConstraint{})
	case "degrees":
		name = "Degrees"
		root = degreesPlan(table)
	case "bfs":
		name = "AdjBFS"
		root = bfsHopPlan(table, []string{"<frontier>"})
	case "ktruss":
		name = "kTruss"
		root = trussRoundPlan(table, out)
	case "jaccard":
		name = "Jaccard"
		root = adjSquareFoldPlan(table)
	case "tricount", "trianglecount":
		name = "TriangleCount"
		root = edgeSupportPlan(table)
	case "pagerank":
		name = "PageRank"
		root = rankStepPlan(table, out)
	case "assign", "spasgn":
		name = "TableAssign"
		root = assignPlan(table, out, "p|", "q|", ScanConstraint{})
	default:
		return nil, fmt.Errorf("core: no plan for kernel %q (try %s)", kernel, strings.Join(ExplainKernels(), ", "))
	}
	return plan.Compile(root, plan.Options{Kernel: name})
}

// ExplainKernels lists the kernel names ExplainPlan accepts, in display
// order.
func ExplainKernels() []string {
	return []string{"mult", "apply", "degrees", "bfs", "ktruss", "jaccard", "tricount", "pagerank", "assign"}
}
