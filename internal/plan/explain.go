package plan

import (
	"fmt"
	"strings"
)

// Format renders the compiled plan in the telemetry FormatTree style:
// a header line, then one group per step with its fused operators
// nested beneath the scan that hosts them. Steps that fuse at least one
// kernel operator into their scan are marked as fused groups — those
// operators run inside a single server-side pass instead of
// materialising an intermediate.
func (p *Plan) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s steps=%d fused-groups=%d\n", p.Kernel, len(p.Steps), p.FusedGroups())
	for i, s := range p.Steps {
		head := fmt.Sprintf("step %d", i+1)
		if s.Fused() {
			head = fmt.Sprintf("fused group (step %d)", i+1)
		}
		fmt.Fprintf(&b, "  - %s: %s\n", head, s.Ops[0])
		for _, op := range s.Ops[1:] {
			fmt.Fprintf(&b, "    - %s\n", op)
		}
	}
	return b.String()
}
