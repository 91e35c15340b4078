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
	// Visit, when set, streams a SinkCollect step's entries to the
	// caller as they arrive instead of accumulating Result.Entries — so
	// a collect whose consumer folds (a BFS hop into the visited set, a
	// table read into an array builder) never materialises the stream.
	Visit func(skv.Entry) error
}

// Cell addresses one output cell of a folding collect.
type Cell struct {
	Row, ColF, ColQ string
}

// Result is what a plan's sink produced.
type Result struct {
	// Written is the entry count RemoteWrite reported for a SinkWrite
	// step (folded cells under a fold stage, raw partial products
	// without one).
	Written int
	// Entries holds a SinkCollect step's stream, in key order.
	Entries []skv.Entry
	// Cells holds a SinkCollectFold step's ⊕-folded output.
	Cells map[Cell]float64
}

// Execute runs the plan's one pass under its own telemetry span: a
// scan carrying the fused iterator stack, executed through the ordinary
// Scanner/EntryStream machinery, so it behaves identically on inproc,
// TCP, and external-daemon transports. A pass over explicit ranges (a
// BFS frontier) is the same one scan: each overlapping tablet serves
// its clips of every range in a single pass.
func (p *Plan) Execute(env Env) (*Result, error) {
	step := &p.Step
	span := env.Query.StartSpan(env.Query.RootID(), stepSpanName(step))
	defer span.End()
	if step.Sink == SinkWrite {
		combiner, err := Combiner(step.Semiring)
		if err != nil {
			return nil, err
		}
		if err := env.Conn.TableOperations().EnsureCombiner(step.OutTable, combiner); err != nil {
			return nil, err
		}
	}
	sc, err := env.Conn.CreateScanner(step.Source)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	defer st.Close()
	res := &Result{}
	switch step.Sink {
	case SinkWrite:
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			v, ok := skv.DecodeFloat(e.V)
			if !ok {
				return nil, fmt.Errorf("plan: monitoring entry %v carries undecodable count %q", e.K, string(e.V))
			}
			res.Written += int(v)
		}
	case SinkCollect:
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			if env.Visit != nil {
				if err := env.Visit(e); err != nil {
					return nil, err
				}
				continue
			}
			res.Entries = append(res.Entries, e)
		}
	case SinkCollectFold:
		fold, err := cellFold(step.Semiring, res)
		if err != nil {
			return nil, err
		}
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			if err := fold(e); err != nil {
				return nil, err
			}
		}
	}
	return res, st.Err()
}

// Combiner names the combiner iterator that applies a semiring's ⊕ on
// a result table — the final ⊕ of a write sink, and of any driver that
// writes partial products itself.
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

// cellFold readies res.Cells and returns the client half of a folding
// collect: each entry ⊕-folds into its output cell. A value that does
// not decode is an error naming the key — the fold stage passes such
// entries through, and dropping one here would silently lose data.
func cellFold(ringName string, res *Result) (func(skv.Entry) error, error) {
	ring, ok := semiring.ByName(ringName)
	if !ok {
		return nil, fmt.Errorf("plan: unknown semiring %q", ringName)
	}
	res.Cells = map[Cell]float64{}
	return func(e skv.Entry) error {
		v, ok := skv.DecodeFloat(e.V)
		if !ok {
			return fmt.Errorf("plan: folding collect: entry %v carries non-numeric value %q", e.K, string(e.V))
		}
		c := Cell{Row: e.K.Row, ColF: e.K.ColF, ColQ: e.K.ColQ}
		if prev, seen := res.Cells[c]; seen {
			v = ring.Add(prev, v)
		}
		res.Cells[c] = v
		return nil
	}, nil
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
