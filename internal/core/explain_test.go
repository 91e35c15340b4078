package core

import (
	"reflect"
	"strings"
	"testing"

	"graphulo/internal/iterator"
)

// TestExplainKernelStacksPinned pins the iterator stack every explained
// kernel compiles to — names, priorities and options, setting for
// setting. The table was written from the build whose planner could
// still materialise and hoist: every kernel already compiled to one
// pass there, and the one-pass planner must reproduce those stacks —
// except kTruss and TriangleCount, which have since moved onto the
// support stage (a kTruss round writes it into its round table, and
// TriangleCount sums it per row before the wire), Jaccard, whose
// square now runs under plus.and, and
// degrees, whose reduce now streams back to the client instead of into
// a table. PageRank's step was added since.
func TestExplainKernelStacksPinned(t *testing.T) {
	fold := iterator.Setting{Name: "fold", Priority: 89, Opts: map[string]string{"bytes": "16777216", "semiring": "plus.times"}}
	write := iterator.Setting{Name: "remoteWrite", Priority: 90, Opts: map[string]string{"table": "C"}}
	foldAnd := iterator.Setting{Name: "fold", Priority: 89, Opts: map[string]string{"bytes": "16777216", "semiring": "plus.and"}}
	// Jaccard counts common neighbours and degrees on the 0/1 pattern:
	// the unmasked square under plus.and, folded under plus.and.
	square := []iterator.Setting{
		{Name: "twoTable", Priority: 30, Opts: map[string]string{"familiesAT": ",edge", "semiring": "plus.and", "tableAT": "A"}},
		foldAnd,
	}
	// kTruss and TriangleCount count support only on edges, each cell
	// formed whole on the tablet hosting its row, so no fold stage. A
	// kTruss round writes it into the round table; TriangleCount reduces
	// it to one count per vertex and streams that back.
	support := iterator.Setting{Name: "support", Priority: 30, Opts: map[string]string{"families": ",edge", "table": "A"}}
	want := map[string][]iterator.Setting{
		"mult": {
			{Name: "twoTable", Priority: 30, Opts: map[string]string{"semiring": "plus.times", "tableAT": "AT"}},
			fold, write,
		},
		"apply": {
			{Name: "scale", Priority: 30, Opts: map[string]string{"factor": "2"}},
			write,
		},
		"degrees": {
			{Name: "rowReduce", Priority: 30, Opts: map[string]string{"colF": "deg", "colQ": "deg", "monoid": "plus"}},
		},
		"bfs":      nil,
		"ktruss":   {support, write},
		"jaccard":  square,
		"tricount": {support, {Name: "rowReduce", Priority: 31, Opts: map[string]string{"colF": "", "colQ": "tri", "monoid": "plus"}}},
		// PageRank's step scans A and multiplies it against the rank
		// vector, here the out table.
		"pagerank": {
			{Name: "twoTable", Priority: 30, Opts: map[string]string{"semiring": "plus.times", "tableAT": "C"}},
			fold,
		},
		"assign": {
			{Name: "spAsgn", Priority: 30, Opts: map[string]string{"colOffset": "q|", "rowOffset": "p|"}},
			write,
		},
	}
	kernels := ExplainKernels()
	if len(kernels) != len(want) {
		t.Fatalf("ExplainKernels = %v, the table pins %d kernels", kernels, len(want))
	}
	for _, k := range kernels {
		p, err := explainCompile(k, "A", "C")
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if got := p.Step.Settings; !reflect.DeepEqual(got, want[k]) {
			t.Errorf("%s: stack\n got  %+v\n want %+v", k, got, want[k])
		}
	}
	// An unknown kernel's error offers exactly the kernels above.
	_, err := explainCompile("nope", "A", "C")
	if err == nil || !strings.Contains(err.Error(), "(try "+strings.Join(kernels, ", ")+")") {
		t.Errorf("unknown kernel: err = %v, want one listing %v", err, kernels)
	}
}
