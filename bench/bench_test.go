package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n         int
		pct       float64
		supported bool
	}{
		{3, 80, false}, {49, 80, false}, {50, 80, true}, {99, 80, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {999, 95, true}, {1000, 99, true},
	} {
		pct, supported := tailPercentile(c.n)
		if pct != c.pct || supported != c.supported {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, pct, supported, c.pct, c.supported)
		}
		if supported && c.n-rank(c.n, pct) < minBeyond {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond it", c.n, pct, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 80: 80, 90: 90, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%g of 1..100 = %g, want %g", p, got, want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %g", got)
	}
}

// The reference values are Python's statistics.quantiles(v, n=4) and
// statistics.median, which the PR driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles(1..10) = %g, %g, median %g; want 2.75, 8.25, 5.5", q1, q3, median(v))
	}
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
	q1, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %g, %g; want 1, 4", q1, q3)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestJudge(t *testing.T) {
	tight := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01} }
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   verdict
	}{
		{"same", tight(100), tight(100), "lower", ok},
		{"slower within bound", tight(100), tight(108), "lower", ok},
		{"slower beyond bound", tight(100), tight(115), "lower", worse},
		{"faster", tight(100), tight(50), "lower", ok},
		{"less throughput", tight(100), tight(80), "higher", worse},
		{"more throughput", tight(100), tight(130), "higher", ok},
		{"noisy side hides a regression", []float64{80, 100, 120}, tight(130), "lower", unresolved},
		{"noisy side hides no change", tight(100), []float64{70, 100, 130}, "lower", unresolved},
		{"single files", []float64{100}, []float64{120}, "lower", worse},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if d, _ := judge([]float64{200}, []float64{150}, "higher", 0.1); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("worsening of 200→150 throughput = %g, want 0.25", d)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Start: 10, Dur: 30}, // 10–40
		{ID: 3, Parent: 1, Start: 30, Dur: 30}, // 30–60 overlaps span 2
		{ID: 4, Parent: 1, Start: 90, Dur: 20}, // 90–110 runs past the parent
		{ID: 5, Parent: 2, Start: 15, Dur: 5},
		{ID: 6, Parent: 0, Start: 200, Dur: 50},
	}
	fillSelf(spans)
	for id, want := range map[int]int64{1: 40, 2: 25, 3: 30, 4: 20, 5: 5, 6: 50} {
		if got := spans[id-1].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
	cov := coverage(spans)
	if len(cov) != 2 || math.Abs(cov[0]-0.6) > 1e-12 || cov[1] != 0 {
		t.Errorf("coverage = %v, want [0.6 0]", cov)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.begin("root")
	r.span("a", func() error { return r.span("b", func() error { return nil }) })
	r.end()
	if len(r.spans) != 3 || r.spans[1].Parent != 1 || r.spans[2].Parent != 2 || len(r.open) != 0 {
		t.Errorf("spans = %+v", r.spans)
	}
	var off *recorder
	called := false
	off.span("x", func() error { called = true; return nil })
	if !called {
		t.Error("a nil recorder must still call through")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json must name exactly the workloads and metrics the binary
// emits.
func TestBenchmarkFileMatchesBinary(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, binary default %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bf.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, binary has %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be the binary's, one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, binary emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, binary emits %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bound %g or unit %q out of range", m.Name, m.Bound, m.Unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, binary emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		checkName(m.Name)
		if m != perLayer[i] || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer[%d] = %+v, binary emits %+v", i, m, perLayer[i])
		}
	}
}

// smoke runs the benchmark in-process on tiny inputs and returns the
// -out result set.
func smoke(t *testing.T, extra ...string) (resultSet, string) {
	t.Helper()
	dir := t.TempDir()
	outFile := filepath.Join(dir, "results.json")
	var stdout, stderr bytes.Buffer
	args := append([]string{"-smoke", "-out-dir", dir, "-out", outFile}, extra...)
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		t.Fatal(err)
	}
	return set, dir
}

func checkResults(t *testing.T, set resultSet, defs []metricDef) {
	t.Helper()
	for _, wl := range workloads {
		r, found := set.Workloads[wl.name]
		if !found || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: result %+v", wl.name, r)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", wl.name, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, found := r.Metrics[d.Name]; !found || m.Unit != d.Unit || math.IsNaN(m.Value) {
				t.Errorf("%s: metric %s = %+v", wl.name, d.Name, m)
			}
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	set, _ := smoke(t)
	checkResults(t, set, endToEnd)
	for _, wl := range workloads {
		for name, m := range set.Workloads[wl.name].Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %g, end-to-end metrics are never 0", wl.name, name, m.Value)
			}
		}
	}
	if set.ServerVsClient <= 0 {
		t.Errorf("server_vs_client = %g", set.ServerVsClient)
	}
}

// The traced smoke run must show the separation the workloads were
// chosen for: each layer's counts are non-zero only where the workload
// reaches that layer.
func TestSmokeTrace(t *testing.T) {
	set, dir := smoke(t, "-trace", "1")
	checkResults(t, set, perLayer)
	value := func(wl, name string) float64 { return set.Workloads[wl].Metrics[name].Value }
	inMemory := []string{"mult.server.s8", "mult.client.s8", "ktruss.s8"}
	for _, c := range []struct {
		metric        string
		nonZero, zero []string
	}{
		{"iterator.pp_per_op", []string{"mult.server.s8", "ktruss.s8"}, []string{"mult.client.s8", "ingest.durable", "bfs.durable.s12"}},
		{"iterator.fold_ratio", []string{"mult.server.s8"}, []string{"mult.client.s8", "ingest.durable", "bfs.durable.s12"}},
		{"rfile.blocks_per_op", []string{"bfs.durable.s12"}, inMemory},
		{"tablet.freezes", []string{"ingest.durable"}, nil},
		{"plan.scratch_tables_per_op", []string{"ktruss.s8"}, []string{"mult.server.s8", "mult.client.s8", "ingest.durable", "bfs.durable.s12"}},
	} {
		for _, wl := range c.nonZero {
			if value(wl, c.metric) == 0 {
				t.Errorf("%s is 0 on %s, which exercises that layer", c.metric, wl)
			}
		}
		for _, wl := range c.zero {
			if v := value(wl, c.metric); v != 0 {
				t.Errorf("%s = %g on %s, which bypasses that layer", c.metric, v, wl)
			}
		}
	}
	for _, wl := range workloads {
		if cov := value(wl.name, "trace_span_coverage"); cov < 0.95 {
			t.Errorf("%s: child spans cover %.3f of the root span, want ≥ 0.95", wl.name, cov)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+wl.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file holds %d spans (err %v)", wl.name, len(spans), err)
		}
	}
}

// One workload on its own ends with the contract's JSON line.
func TestSingleWorkloadResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-workload", "ingest.durable", "-seed", "23", "-out-dir", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v", line)
	}
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must fail")
	}
}

func TestCompareSets(t *testing.T) {
	set := func(p50 float64, failed int) resultSet {
		s := resultSet{Workloads: map[string]result{}}
		for _, wl := range workloads {
			s.Workloads[wl.name] = result{Correct: failed == 0, Attempted: 100, Failed: failed,
				Metrics: map[string]metric{"op_p50_ms": {p50, "ms"}}}
		}
		return s
	}
	bounds := []boundedMetric{{metricDef{"op_p50_ms", "ms", "lower"}, 0.1}}
	var out bytes.Buffer
	if compareSets([]resultSet{set(100, 0)}, []resultSet{set(105, 0)}, bounds, &out) {
		t.Errorf("5%% slower is within a 10%% bound:\n%s", out.String())
	}
	if !compareSets([]resultSet{set(100, 0)}, []resultSet{set(120, 0)}, bounds, &out) {
		t.Error("20% slower must be worse")
	}
	if !compareSets([]resultSet{set(100, 0)}, []resultSet{set(100, 1)}, bounds, &out) {
		t.Error("a new failure must be worse")
	}
	out.Reset()
	if compareSets([]resultSet{set(80, 0), set(100, 0), set(120, 0)}, []resultSet{set(130, 0)}, bounds, &out) ||
		!strings.Contains(out.String(), string(unresolved)) {
		t.Errorf("a side noisier than the bound must be unresolved, not worse:\n%s", out.String())
	}
}
