package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded from the benchmark's own files
// around a call into the program. Times are nanoseconds since the
// recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root span (one per op)
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	// Self is Dur minus the part of the interval child spans cover.
	Self int64 `json:"self_ns"`
	// Counters holds the program's counter deltas over the span (root
	// spans only).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// recorder keeps spans in memory until the run ends. It serves the one
// closed-loop client, so it needs no locking. A nil recorder means
// tracing is off: span just calls through.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans of the spans not yet ended, outermost first
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string) int {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name,
		Start: int64(time.Since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span.
func (r *recorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].Dur = int64(time.Since(r.t0)) - r.spans[i].Start
}

// span times fn as a child of the innermost open span.
func (r *recorder) span(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	r.begin(name)
	defer r.end()
	return fn()
}

// fillSelf computes every span's self time: its duration minus the
// union of its direct children's intervals, clipped to the span.
func fillSelf(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.Start+k.Dur, s.Start+s.Dur)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.Dur - covered
	}
}

// coverage returns, per root span, the share of its duration that its
// child spans account for (1 − self/dur). fillSelf must have run.
func coverage(spans []span) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Parent == 0 && s.Dur > 0 {
			out = append(out, 1-float64(s.Self)/float64(s.Dur))
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	raw, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
