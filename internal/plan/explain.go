package plan

import (
	"fmt"
	"strings"
)

// Format renders the compiled plan in the telemetry FormatTree style:
// a header line, then the one pass with its fused operators nested
// beneath the scan that hosts them. A pass that fuses at least one
// kernel operator into its scan is marked as a fused group.
func (p *Plan) Format() string {
	var b strings.Builder
	s := p.Step
	head := "pass"
	if s.Fused() {
		head = "fused group"
	}
	fmt.Fprintf(&b, "plan %s\n  - %s: %s\n", p.Kernel, head, s.Ops[0])
	for _, op := range s.Ops[1:] {
		fmt.Fprintf(&b, "    - %s\n", op)
	}
	return b.String()
}
