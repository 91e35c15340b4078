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
	"graphulo/internal/semiring"
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
		"C", "plus.times", -1)
	p := compileOK(t, root, Options{Kernel: "fuseAll"})
	if !p.Step.Fused() {
		t.Fatalf("apply+reduce+spAsgn should be a fused group, got ops %v", p.Step.Ops)
	}
	// Stages keep tree order: the spAsgn is the top of the tree, so it
	// sits directly below the sink.
	if got, want := settingNames(p.Step), []string{"scale", "rowReduce", "spAsgn", "remoteWrite"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("stack %v, want %v", got, want)
	}
}

// TestCompileRefusesUnfusible: a chain that cannot run as one pass is a
// compile error naming both operators; the pairs that do fuse compile
// to one stack in tree order.
func TestCompileRefusesUnfusible(t *testing.T) {
	scan := func() *Node { return Scan("A", Constraint{}) }
	mult := func(in *Node) *Node { return Mult(in, "AT", "plus.times") }
	apply := func(in *Node) *Node {
		return Apply(in, iterator.Setting{Name: "threshold", Opts: map[string]string{"min": "2"}})
	}
	reduce := func(in *Node) *Node { return Reduce(in, "plus", "", "deg") }
	spAsgn := func(in *Node) *Node { return SpAsgn(in, "p|", "q|") }
	write := func(in *Node) *Node { return Write(in, "C", "plus.times", 0) }
	cases := []struct {
		name    string
		root    *Node
		refused string   // the operator pair the error must name
		stack   []string // the accepted plan's stack
	}{
		{name: "apply over mult", root: write(apply(mult(scan()))), refused: "apply over mult"},
		{name: "reduce over mult", root: write(reduce(mult(scan()))), refused: "reduce over mult"},
		{name: "mult over mult", root: write(mult(mult(scan()))), refused: "mult over mult"},
		{name: "apply over spAsgn", root: write(apply(spAsgn(scan()))), refused: "apply over spAsgn"},
		{name: "reduce over spAsgn", root: write(reduce(spAsgn(scan()))), refused: "reduce over spAsgn"},
		{name: "mult over spAsgn", root: write(mult(spAsgn(scan()))), refused: "mult over spAsgn"},
		{name: "spAsgn over mult", root: write(spAsgn(mult(scan()))),
			stack: []string{"twoTable", "spAsgn", "fold", "remoteWrite"}},
		{name: "mult over apply", root: write(mult(apply(scan()))),
			stack: []string{"threshold", "twoTable", "fold", "remoteWrite"}},
		{name: "mult over reduce", root: write(mult(reduce(scan()))),
			stack: []string{"rowReduce", "twoTable", "fold", "remoteWrite"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Compile(c.root, Options{Kernel: c.name})
			if c.refused != "" {
				if err == nil || !strings.Contains(err.Error(), c.refused) {
					t.Fatalf("Compile = %v, want an error naming %q", err, c.refused)
				}
				return
			}
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			if got := settingNames(p.Step); !reflect.DeepEqual(got, c.stack) {
				t.Fatalf("stack %v, want %v", got, c.stack)
			}
		})
	}
	// The apply-over-mult refusal says what would lift it.
	if _, err := Compile(write(apply(mult(scan()))), Options{}); err == nil || !strings.Contains(err.Error(), "post-fold stage") {
		t.Fatalf("apply over mult: %v, want the error to name the missing post-fold stage", err)
	}
}

func TestCompileCollectFoldNeedsNoScratch(t *testing.T) {
	root := CollectFold(Mult(Scan("A", Constraint{}), "A", "plus.times"), "plus.times")
	p := compileOK(t, root, Options{Kernel: "square"})
	if p.Step.Sink != SinkCollect || p.Step.OutTable != "" {
		t.Fatalf("collect-fold over mult should stream to the client, got %+v", p.Step)
	}
}

func TestCompileRejectsBadRoots(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("nil root must error")
	}
	if _, err := Compile(Scan("A", Constraint{}), Options{}); err == nil {
		t.Fatal("non-sink root must error")
	}
	if _, err := Compile(Write(Write(Scan("A", Constraint{}), "B", "", 0), "C", "", 0), Options{}); err == nil {
		t.Fatal("sink in the middle of a chain must error")
	}
}

func TestConstraintBecomesColRangeSetting(t *testing.T) {
	c := Constraint{RowStart: "a", RowEnd: "m", ColQStart: "b", ColQEnd: "k"}
	root := Write(Scan("A", c), "C", "plus.times", -1)
	p := compileOK(t, root, Options{Kernel: "band"})
	step := p.Step
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
// directly below its sink — write and folding collect alike, spAsgn
// included — with the one fixed budget; nothing else does.
func TestFoldStagePlacement(t *testing.T) {
	mult := func() *Node { return Mult(Scan("A", Constraint{}), "AT", "min.plus") }
	cases := []struct {
		name  string
		root  *Node
		want  []string // the last step's stack
		bytes int
	}{
		{"write", Write(mult(), "C", "min.plus", 0), []string{"twoTable", "fold", "remoteWrite"}, DefaultPreAggBytes},
		{"write+spAsgn", Write(SpAsgn(mult(), "p|", ""), "C", "min.plus", 0), []string{"twoTable", "spAsgn", "fold", "remoteWrite"}, DefaultPreAggBytes},
		{"collect-fold", CollectFold(mult(), "min.plus"), []string{"twoTable", "fold"}, DefaultPreAggBytes},
		{"write, explicit budget", Write(mult(), "C", "min.plus", 4096), []string{"twoTable", "fold", "remoteWrite"}, 4096},
		{"write, fold off", Write(mult(), "C", "min.plus", -1), []string{"twoTable", "remoteWrite"}, 0},
		{"raw collect", Collect(mult()), []string{"twoTable"}, 0},
		{"no multiply", Write(Scan("A", Constraint{}), "C", "plus.times", 0), []string{"remoteWrite"}, 0},
	}
	for _, c := range cases {
		step := compileOK(t, c.root, Options{Kernel: c.name}).Step
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
}

// TestFoldingCollectPassesNonNumericToVisitor: the fold stage passes a
// value it cannot decode through, and a folding collect hands that
// entry to the caller's visitor unchanged — beside the numeric one —
// over one range and over many ranges. The visitor, which finishes the
// ⊕, is where such an entry is refused by key.
func TestFoldingCollectPassesNonNumericToVisitor(t *testing.T) {
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
	step := finalize(chain{source: "T"}, SinkCollect, "", "plus.times", DefaultPreAggBytes)
	if settingNames(step)[0] != "fold" {
		t.Fatalf("stack %v, want the fold stage ahead of the wire", settingNames(step))
	}
	for _, ranges := range [][]skv.Range{nil, {skv.ExactRow("a"), skv.ExactRow("b")}} { // one range, many ranges
		step.Ranges = ranges
		got := map[string]string{}
		_, err := (&Plan{Kernel: "test", Step: step}).Execute(Env{Conn: conn, Query: q, Visit: func(e skv.Entry) error {
			got[e.K.Row+" "+e.K.ColQ] = string(e.V)
			return nil
		}})
		if err != nil {
			t.Fatalf("ranges %v: %v", ranges, err)
		}
		if want := map[string]string{"a x": "2", "b y": "not-a-number"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("ranges %v: visitor saw %v, want %v", ranges, got, want)
		}
	}
}

// TestCollectNeedsVisitor: a collect has nowhere to put its entries
// but the caller's visitor, so Execute refuses one without — plain or
// folding — before it starts a pass.
func TestCollectNeedsVisitor(t *testing.T) {
	mc := accumulo.NewMiniCluster(accumulo.Config{})
	defer mc.Close()
	conn := mc.Connector()
	if err := conn.TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	q, done, err := mc.StartKernelQuery("test", "")
	if err != nil {
		t.Fatal(err)
	}
	defer done(nil)
	stats := &mc.Telemetry().Stats
	for _, root := range []*Node{
		Collect(Scan("T", Constraint{})),
		CollectFold(Mult(Scan("T", Constraint{}), "T", "plus.times"), "plus.times"),
	} {
		p := compileOK(t, root, Options{Kernel: "read"})
		before := stats.Get(telemetry.ScansStarted)
		if _, err := p.Execute(Env{Conn: conn, Query: q}); err == nil || !strings.Contains(err.Error(), "visitor") {
			t.Fatalf("%s: Execute without a visitor = %v, want an error naming the visitor", p.Step.Ops[len(p.Step.Ops)-1], err)
		}
		if started := stats.Get(telemetry.ScansStarted) - before; started != 0 {
			t.Fatalf("a refused collect started %d scans", started)
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
	p := compileOK(t, Collect(ScanRanges("F", ranges)), Options{Kernel: "test"})
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
	p := compileOK(t, Write(Mult(Scan("A", Constraint{}), "AT", "plus.times"), "C", "plus.times", 0),
		Options{Kernel: "mult"})
	out := p.Format()
	if !strings.HasPrefix(out, "plan mult\n  - fused group: scan A\n") {
		t.Fatalf("Format output missing the header or fused-group marker:\n%s", out)
	}
	if strings.Contains(out, "steps=") || strings.Contains(out, "fused-groups=") || strings.Contains(out, "step 1") {
		t.Fatalf("Format output still counts or numbers steps:\n%s", out)
	}
	if !strings.Contains(out, "    - fold ⊕ plus.times ≤16 MiB\n    - write C\n") {
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

	if out := compileOK(t, Collect(Scan("A", Constraint{})), Options{Kernel: "read"}).Format(); out != "plan read\n  - pass: scan A\n    - collect [streams to client, no scratch table]\n" {
		t.Fatalf("unfused Format output:\n%s", out)
	}
}

// TestCombinerEveryStandardRing: every semiring a kernel can name maps
// to a combiner a result table can carry, so a write sink never asks
// EnsureCombiner for an iterator it refuses; an unknown ring is an
// error.
func TestCombinerEveryStandardRing(t *testing.T) {
	for _, ring := range semiring.Standard() {
		c, err := Combiner(ring.Name)
		if err != nil || !iterator.IsCombiner(c) {
			t.Errorf("Combiner(%q) = %q, %v; want a combiner iterator", ring.Name, c, err)
		}
	}
	if c, err := Combiner("nope"); err == nil {
		t.Errorf("Combiner(\"nope\") = %q, want an error", c)
	}
}
