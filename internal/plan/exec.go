package plan

import (
	"fmt"

	"graphulo/internal/accumulo"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// Env is what a plan needs to run.
type Env struct {
	Conn  *accumulo.Connector
	Query *telemetry.Query
	// Visit receives a collect step's entries as they arrive; it is the
	// client's only share of the work. A consumer that folds — a BFS hop
	// into the visited set, Jaccard's common-neighbour counts — folds
	// here, so a collect never materialises its stream. Over a multiply
	// the entries are the fold stage's partially summed cells and Visit
	// finishes the ⊕. A collect without Visit is refused.
	Visit func(skv.Entry) error
}

// Execute runs the plan's one pass under its own telemetry span: a
// scan carrying the fused iterator stack, executed through the ordinary
// Scanner/EntryStream machinery, so it behaves identically on inproc,
// TCP, and external-daemon transports. A pass over explicit ranges (a
// BFS frontier) is the same one scan: each overlapping tablet serves
// its clips of every range in a single pass. A write step returns the
// entry count RemoteWrite reported (folded cells under a multiply); a
// collect step streams to env.Visit and returns 0.
func (p *Plan) Execute(env Env) (written int, err error) {
	step := &p.Step
	if step.Sink == SinkCollect && env.Visit == nil {
		return 0, fmt.Errorf("plan: %s: a collect needs a visitor", p.Kernel)
	}
	span := env.Query.StartSpan(env.Query.RootID(), stepSpanName(step))
	defer span.End()
	if step.Sink == SinkWrite {
		if err := env.Conn.TableOperations().EnsureCombiner(step.OutTable, step.Combiner); err != nil {
			return 0, err
		}
	}
	sc, err := env.Conn.CreateScanner(step.Source)
	if err != nil {
		return 0, err
	}
	sc.SetTrace(env.Query)
	if len(step.Constraint.Families) > 0 {
		sc.SetFamilies(step.Constraint.Families...)
	}
	if len(step.Ranges) > 0 {
		sc.SetRanges(step.Ranges)
	} else {
		sc.SetRange(step.Constraint.rowRange())
	}
	for _, s := range step.Settings {
		sc.AddScanIterator(s)
	}
	st, err := sc.Stream()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		if step.Sink == SinkCollect {
			if err := env.Visit(e); err != nil {
				return 0, err
			}
			continue
		}
		v, ok := skv.DecodeFloat(e.V)
		if !ok {
			return 0, fmt.Errorf("plan: monitoring entry %v carries undecodable count %q", e.K, string(e.V))
		}
		written += int(v)
	}
	if err := st.Err(); err != nil {
		return 0, err
	}
	return written, nil
}

// Combiner names the combiner iterator that applies a semiring's ⊕ on
// a result table — the final ⊕ of a write sink over a multiply, and of
// any driver that writes partial products itself.
func Combiner(ringName string) (string, error) {
	if _, ok := semiring.ByName(ringName); !ok {
		return "", fmt.Errorf("plan: unknown semiring %q", ringName)
	}
	switch ringName {
	case "min.plus", "min.max":
		return "min", nil
	case "max.plus", "max.min":
		return "max", nil
	case "or.and":
		return "max", nil // OR over {0,1} is max
	default:
		return "sum", nil
	}
}

// stepSpanName labels a step's telemetry span with its fused shape.
func stepSpanName(step *Step) string {
	name := "plan:" + step.Source
	for _, op := range step.Ops[1:] { // Ops[0] is the scan itself
		name += "+" + firstWord(op)
	}
	return name
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}
