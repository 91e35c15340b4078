package core

import (
	"reflect"
	"testing"

	"graphulo/internal/iterator"
)

// TestExplainKernelStacksPinned pins the iterator stack every explained
// kernel compiles to — names, priorities and options, setting for
// setting. The table was written from the build whose planner could
// still materialise and hoist: every kernel already compiled to one
// pass there, and the one-pass planner must reproduce those stacks —
// except kTruss and TriangleCount, which have since moved onto the
// masked multiply, and degrees, whose reduce now streams back to the
// client instead of into a table.
func TestExplainKernelStacksPinned(t *testing.T) {
	fold := iterator.Setting{Name: "fold", Priority: 89, Opts: map[string]string{"bytes": "16777216", "semiring": "plus.times"}}
	write := iterator.Setting{Name: "remoteWrite", Priority: 90, Opts: map[string]string{"table": "C"}}
	square := []iterator.Setting{
		{Name: "twoTable", Priority: 30, Opts: map[string]string{"familiesAT": ",edge", "semiring": "plus.times", "tableAT": "A"}},
		fold,
	}
	// kTruss and TriangleCount count support only on edges: the masked
	// product under plus.and, folded under plus.and.
	support := []iterator.Setting{
		{Name: "twoTable", Priority: 30, Opts: map[string]string{"familiesAT": ",edge", "familiesMask": ",edge", "mask": "A", "semiring": "plus.and", "tableAT": "A"}},
		{Name: "fold", Priority: 89, Opts: map[string]string{"bytes": "16777216", "semiring": "plus.and"}},
	}
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
		"ktruss":   support,
		"jaccard":  square,
		"tricount": support,
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
}
