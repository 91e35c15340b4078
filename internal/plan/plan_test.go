package plan

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphulo/internal/accumulo"
	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

func compileOK(t *testing.T, root *Node, opts Options) *Plan {
	t.Helper()
	p, err := Compile(root, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestCompileFusesApplyReduceSpAsgn(t *testing.T) {
	root := Write(
		SpAsgn(
			Reduce(
				Apply(Scan("A", Constraint{}), iterator.Setting{Name: "scale", Opts: map[string]string{"factor": "2"}}),
				"plus", "", "deg"),
			"p|", ""),
		"C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "fuseAll", TraceID: "t"})
	if len(p.Steps) != 1 {
		t.Fatalf("apply+reduce+spAsgn should fuse into one step, got %d: %+v", len(p.Steps), p.Steps)
	}
	if got := p.FusedGroups(); got != 1 {
		t.Fatalf("FusedGroups = %d, want 1", got)
	}
	if len(p.ScratchTables()) != 0 {
		t.Fatalf("fully fused plan created scratch tables: %v", p.ScratchTables())
	}
	// SpAsgn is hoisted to run last, directly below the sink.
	step := p.Steps[0]
	var names []string
	for _, s := range step.Settings {
		names = append(names, s.Name)
	}
	last := names[len(names)-1]
	if last != "remoteWrite" || names[len(names)-2] != "spAsgn" {
		t.Fatalf("spAsgn must sit directly below the sink, got settings %v", names)
	}
}

func TestCompileMaterializesReduceOverMult(t *testing.T) {
	root := Write(
		Reduce(Mult(Scan("A", Constraint{}), "AT", "plus.times"), "plus", "", "deg"),
		"C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "degOfSquare", ScratchBase: "C", TraceID: "abc"})
	if len(p.Steps) != 2 {
		t.Fatalf("reduce over mult must materialize: want 2 steps, got %d", len(p.Steps))
	}
	scratch := p.ScratchTables()
	if len(scratch) != 1 || scratch[0] != "C_m0_abc" {
		t.Fatalf("scratch tables = %v, want [C_m0_abc]", scratch)
	}
	if !p.Steps[0].Scratch || p.Steps[0].OutTable != "C_m0_abc" {
		t.Fatalf("step 0 should write the scratch table, got %+v", p.Steps[0])
	}
	if p.Steps[1].Source != "C_m0_abc" {
		t.Fatalf("step 1 should rescan the scratch table, got source %q", p.Steps[1].Source)
	}
}

func TestCompileMaterializesMultOverMult(t *testing.T) {
	root := Write(
		Mult(Mult(Scan("A", Constraint{}), "A", "plus.times"), "A", "plus.times"),
		"C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "cube", ScratchBase: "C", TraceID: "x"})
	if len(p.Steps) != 2 {
		t.Fatalf("mult over mult must materialize: want 2 steps, got %d", len(p.Steps))
	}
	if got := p.FusedGroups(); got != 2 {
		t.Fatalf("both steps carry a mult, FusedGroups = %d, want 2", got)
	}
}

func TestCompileCollectFoldNeedsNoScratch(t *testing.T) {
	root := CollectFold(Mult(Scan("A", Constraint{}), "A", "plus.times"), "plus.times")
	p := compileOK(t, root, Options{Kernel: "square", TraceID: "t"})
	if len(p.Steps) != 1 || len(p.ScratchTables()) != 0 {
		t.Fatalf("collect-fold over mult should be a single scratch-free step, got %+v", p.Steps)
	}
	if p.Steps[0].Sink != SinkCollectFold {
		t.Fatalf("sink = %v, want SinkCollectFold", p.Steps[0].Sink)
	}
}

func TestCompileRejectsBadRoots(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("nil root must error")
	}
	if _, err := Compile(Scan("A", Constraint{}), Options{}); err == nil {
		t.Fatal("non-sink root must error")
	}
	if _, err := Compile(Write(Write(Scan("A", Constraint{}), "B", "", 0, 0), "C", "", 0, 0), Options{}); err == nil {
		t.Fatal("sink in the middle of a chain must error")
	}
}

func TestConstraintBecomesColRangeSetting(t *testing.T) {
	c := Constraint{RowStart: "a", RowEnd: "m", ColQStart: "b", ColQEnd: "k"}
	root := Write(Scan("A", c), "C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "band"})
	step := p.Steps[0]
	found := false
	for _, s := range step.Settings {
		if s.Name == "colRange" {
			found = true
			if s.Priority != 25 {
				t.Fatalf("colRange priority = %d, want 25 (below kernel stages)", s.Priority)
			}
			if s.Opts["minColQ"] != "b" || s.Opts["maxColQ"] != "k" {
				t.Fatalf("colRange opts = %v", s.Opts)
			}
		}
	}
	if !found {
		t.Fatal("column constraint did not compile to a colRange setting")
	}
	if !reflect.DeepEqual(step.Constraint, c) {
		t.Fatalf("step constraint = %+v, want %+v", step.Constraint, c)
	}
}

// settingNames lists a step's iterator stack bottom-up.
func settingNames(s Step) []string {
	var names []string
	for _, st := range s.Settings {
		names = append(names, st.Name)
	}
	return names
}

// TestFoldStagePlacement: every multiply chain gets the one fold stage
// directly below its sink — write, materialize and folding collect
// alike, spAsgn included — with the one fixed budget; nothing else does.
func TestFoldStagePlacement(t *testing.T) {
	mult := func() *Node { return Mult(Scan("A", Constraint{}), "AT", "min.plus") }
	cases := []struct {
		name  string
		root  *Node
		want  []string // the last step's stack
		bytes int
	}{
		{"write", Write(mult(), "C", "min.plus", 0, 0), []string{"twoTable", "fold", "remoteWrite"}, DefaultPreAggBytes},
		{"write+spAsgn", Write(SpAsgn(mult(), "p|", ""), "C", "min.plus", 0, 0), []string{"twoTable", "spAsgn", "fold", "remoteWrite"}, DefaultPreAggBytes},
		{"collect-fold", CollectFold(mult(), "min.plus"), []string{"twoTable", "fold"}, DefaultPreAggBytes},
		{"write, explicit budget", Write(mult(), "C", "min.plus", 0, 4096), []string{"twoTable", "fold", "remoteWrite"}, 4096},
		{"write, fold off", Write(mult(), "C", "min.plus", 0, -1), []string{"twoTable", "remoteWrite"}, 0},
		{"raw collect", Collect(mult()), []string{"twoTable"}, 0},
		{"no multiply", Write(Scan("A", Constraint{}), "C", "plus.times", 0, 0), []string{"remoteWrite"}, 0},
	}
	for _, c := range cases {
		p := compileOK(t, c.root, Options{Kernel: c.name, TraceID: "t"})
		step := p.Steps[len(p.Steps)-1]
		if got := settingNames(step); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: stack %v, want %v", c.name, got, c.want)
		}
		for _, s := range step.Settings {
			if s.Name == "fold" && (s.Opts["semiring"] != "min.plus" || s.Opts["bytes"] != strconv.Itoa(c.bytes)) {
				t.Errorf("%s: fold opts %v", c.name, s.Opts)
			}
			if s.Name == "remoteWrite" && (s.Opts["preAggBytes"] != "" || s.Opts["semiring"] != "") {
				t.Errorf("%s: remoteWrite still carries fold options: %v", c.name, s.Opts)
			}
		}
	}
	// A materialised multiply folds in front of its scratch table too.
	p := compileOK(t, Write(Reduce(Mult(Scan("A", Constraint{}), "AT", ""), "plus", "", "deg"), "C", "", 0, 0),
		Options{Kernel: "degOfSquare", ScratchBase: "C", TraceID: "t"})
	if got, want := settingNames(p.Steps[0]), []string{"twoTable", "fold", "remoteWrite"}; !reflect.DeepEqual(got, want) {
		t.Errorf("materialize: stack %v, want %v", got, want)
	}
}

// TestFoldingCollectRefusesNonNumeric: a value the server fold stage
// passed through because it does not decode must fail the client fold
// by key, not vanish from the result.
func TestFoldingCollectRefusesNonNumeric(t *testing.T) {
	mc := accumulo.NewMiniCluster(accumulo.Config{})
	defer mc.Close()
	conn := mc.Connector()
	if err := conn.TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("T", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat("a", "", "x", 2); err != nil {
		t.Fatal(err)
	}
	if err := w.Put("b", "", "y", skv.Value("not-a-number")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	q, done, err := mc.StartKernelQuery("test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer done(nil)
	step := finalize(chain{source: "T"}, SinkCollectFold, "", "plus.times", 0, DefaultPreAggBytes)
	for _, ranges := range [][]skv.Range{nil, {skv.ExactRow("a"), skv.ExactRow("b")}} { // one range, many ranges
		step.Ranges = ranges
		_, err := (&Plan{Kernel: "test", Steps: []Step{step}}).Execute(Env{Conn: conn, Query: q})
		if err == nil || !strings.Contains(err.Error(), "b :y") || !strings.Contains(err.Error(), "not-a-number") {
			t.Fatalf("ranges %v: folding collect over a non-numeric entry returned %v, want an error naming key b :y", ranges, err)
		}
	}
}

// TestVisitErrorStopsMultiRangeCollect: a visitor error on a collect
// over many ranges spread across tablets is returned as is, stops the
// stream early, and leaves no tablet pass or fetch worker running.
func TestVisitErrorStopsMultiRangeCollect(t *testing.T) {
	mc := accumulo.NewMiniCluster(accumulo.Config{WireBatch: 8})
	defer mc.Close()
	conn := mc.Connector()
	if err := conn.TableOperations().CreateWithSplits("F", []string{"r025", "r050", "r075"}); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("F", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var ranges []skv.Range
	for i := 0; i < 100; i++ {
		row := fmt.Sprintf("r%03d", i)
		ranges = append(ranges, skv.ExactRow(row))
		for j := 0; j < 2; j++ {
			if err := w.PutFloat(row, "", fmt.Sprintf("c%d", j), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	q, done, err := mc.StartKernelQuery("test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer done(nil)
	p := compileOK(t, Collect(ScanRanges("F", ranges)), Options{Kernel: "test", TraceID: "t"})
	count := 0
	if _, err := p.Execute(Env{Conn: conn, Query: q, Visit: func(skv.Entry) error { count++; return nil }}); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("collect visited %d entries, want 200", count)
	}

	runtime.GC()
	before := runtime.NumGoroutine()
	stop := errors.New("stop here")
	calls := 0
	_, err = p.Execute(Env{Conn: conn, Query: q, Visit: func(skv.Entry) error {
		calls++
		if calls == 10 {
			return stop
		}
		return nil
	}})
	if !errors.Is(err, stop) {
		t.Fatalf("Execute error = %v, want the visitor's", err)
	}
	if calls != 10 {
		t.Fatalf("visitor called %d times, want the stream stopped at its error (10)", calls)
	}
	stats := &mc.Telemetry().Stats
	deadline := time.Now().Add(5 * time.Second)
	for stats.Get(telemetry.ScansInFlight) != 0 || runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("after a visitor error: %d tablet passes in flight, %d goroutines (started with %d)",
				stats.Get(telemetry.ScansInFlight), runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFormatMarksFusedGroupsAndScratch(t *testing.T) {
	root := Write(
		Reduce(Mult(Scan("A", Constraint{}), "AT", "plus.times"), "plus", "", "deg"),
		"C", "plus.times", 0, 0)
	p := compileOK(t, root, Options{Kernel: "degOfSquare", ScratchBase: "C", TraceID: "t"})
	out := p.Format()
	if !strings.Contains(out, "fused group") {
		t.Fatalf("Format output missing fused-group marker:\n%s", out)
	}
	if !strings.Contains(out, "scratch table") {
		t.Fatalf("Format output missing scratch-table marker:\n%s", out)
	}
	if !strings.Contains(out, "fused-groups=") {
		t.Fatalf("Format output missing fused-groups header:\n%s", out)
	}

	if !strings.Contains(out, "    - fold ⊕ plus.times ≤16 MiB\n    - materialize ") {
		t.Fatalf("Format output missing the fold stage's own line below the mult:\n%s", out)
	}

	fold := compileOK(t, CollectFold(Mult(Scan("A", Constraint{}), "A", "plus.times"), "plus.times"),
		Options{Kernel: "square"})
	out = fold.Format()
	if !strings.Contains(out, "no scratch table") {
		t.Fatalf("collect-fold Format missing no-scratch marker:\n%s", out)
	}
	if !strings.Contains(out, "    - fold ⊕ plus.times ≤16 MiB\n    - collect ⊕-fold") {
		t.Fatalf("collect-fold Format missing the fold stage's line:\n%s", out)
	}
}
