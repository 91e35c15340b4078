package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"graphulo"
	"graphulo/internal/schema"
	"graphulo/internal/skv"
)

// metricDef names a metric the benchmark emits; BENCHMARK.json repeats
// these (bench_test.go keeps the two in step) and adds the bounds.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the gated metrics, taken only with tracing off and
// reported under the same names on every workload.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"throughput_eps", "entries/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// rateRungs are the ladder rungs reported as <name>_eps plus
// <name>_allocs.
var rateRungs = []string{
	"skv.encode", "skv.decode", "wal.append", "rfile.write", "rfile.scan_cold", "rfile.scan_warm",
	"tablet.write", "tablet.scan", "store.flush", "iterator.merge", "iterator.stack",
	"accumulo.scan", "accumulo.write", "assoc.fold",
}

// perLayer are the traced run's metrics: ladder unit costs, then the
// workload's own counts and ratios from the program's counters.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, r := range rateRungs {
		defs = append(defs, metricDef{r + "_eps", "entries/s", "higher"}, metricDef{r + "_allocs", "allocs/entry", "lower"})
	}
	return append(defs,
		metricDef{"iterator.twotable_pps", "pp/s", "higher"},
		metricDef{"iterator.twotable_allocs", "allocs/pp", "lower"},
		metricDef{"iterator.twotable_fold_ratio", "ratio", "higher"},
		metricDef{"rfile.blocks_per_seek", "count", "lower"},
		metricDef{"transport.inproc_rtt_us", "us", "lower"},
		metricDef{"transport.tcp_rtt_us", "us", "lower"},
		metricDef{"transport.inproc_stream_mbps", "MB/s", "higher"},
		metricDef{"transport.tcp_stream_mbps", "MB/s", "higher"},
		metricDef{"plan.compile_us", "us", "lower"},
		metricDef{"sched.admit_ns", "ns", "lower"},

		metricDef{"iterator.pp_per_op", "count/op", "lower"},
		metricDef{"iterator.fold_ratio", "ratio", "higher"},
		metricDef{"accumulo.entries_scanned_per_op", "count/op", "lower"},
		metricDef{"accumulo.entries_written_per_op", "count/op", "lower"},
		metricDef{"accumulo.wire_bytes_per_entry", "B/entry", "lower"},
		metricDef{"accumulo.rpcs_per_op", "count/op", "lower"},
		metricDef{"core.passes_per_op", "count/op", "lower"},
		metricDef{"plan.scratch_tables_per_op", "count/op", "lower"},
		metricDef{"rfile.blocks_per_op", "count/op", "lower"},
		metricDef{"cache.hit_ratio", "ratio", "higher"},
		metricDef{"rfile.bloom_skip_ratio", "ratio", "higher"},
		metricDef{"rfile.locality_skip_ratio", "ratio", "higher"},
		metricDef{"tablet.freezes", "count/op", "lower"},
		metricDef{"tablet.stall_frac", "ratio", "lower"},
		metricDef{"store.compactions", "count/op", "lower"},
		metricDef{"sched.queue_wait_frac", "ratio", "lower"},
		metricDef{"process.gc_cpu_frac", "ratio", "lower"},
		metricDef{"process.heap_peak_mb", "MB", "lower"},
		metricDef{"trace_overhead", "ratio", "lower"},
		metricDef{"trace_span_coverage", "ratio", "higher"},
	)
}()

// metric and result are the contract's output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func toMetrics(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{values[d.Name], d.Unit}
	}
	return out
}

const (
	warmupOps       = 3
	minSetups       = 3 // set-up repetitions whose median is setup_s …
	maxSetups       = 5 // … more while they are cheap
	setupBudget     = 3 * time.Second
	ladderRungTime  = 150 * time.Millisecond
	smokeRungTime   = 2 * time.Millisecond
	tracedLoopShare = 4 // a traced run spends 1/4 of -seconds untraced and 1/4 traced
)

// counters is a snapshot of the program's cumulative counters.
type counters map[string]int64

func snapshot(db *graphulo.DB) counters {
	wire, rpcs, written, scanned := db.Metrics()
	sm := db.ScanMetrics()
	return counters{
		"wire_bytes": wire, "rpcs": rpcs, "entries_written": written, "entries_scanned": scanned,
		"cache_hits": sm.CacheHits, "cache_misses": sm.CacheMisses, "bloom_negatives": sm.BloomNegatives,
		"locality_blocks_skipped": sm.LocalityBlocksSkipped, "memtable_freezes": sm.MemtableFreezes,
		"write_stall_nanos": sm.WriteStallNanos, "major_compactions": sm.MajorCompactions,
		"tablet_scans": sm.TabletScans, "partial_products_folded": sm.PartialProductsFolded,
		"scratch_tables_created": sm.ScratchTablesCreated,
	}
}

// minus returns the non-zero deltas since an earlier snapshot.
func (c counters) minus(earlier counters) counters {
	d := counters{}
	for k, v := range c {
		if v != earlier[k] {
			d[k] = v - earlier[k]
		}
	}
	return d
}

func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// processSample reads the runtime's cumulative allocation and CPU
// accounting without stopping the world.
type processSample struct {
	allocBytes, heapBytes uint64
	gcCPU, totalCPU       float64
}

func readProcess() processSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return processSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64()}
}

// loop drives one closed-loop client over an instance and accumulates
// what the metrics are computed from. Only successful ops contribute
// latencies, units and allocations; every op counts as attempted.
type loop struct {
	name string
	inst *instance
	next int // index of the next op

	lat               []float64 // ms
	busy              time.Duration
	units             int64
	allocBytes        uint64
	heapPeak          uint64
	attempted, failed int
	firstErr          error
	deltas            counters // traced loops only
	queueWaitNs       int64    // traced loops only
}

// one runs a single op with its untimed prepare/verify/cleanup. An op
// or verification error fails the op; a prepare or cleanup error is
// fatal, because the following ops would run against a broken table.
func (l *loop) one(rec *recorder) error {
	i, inst := l.next, l.inst
	l.next++
	if rec != nil {
		// Counter snapshots sit outside the root span, so the span holds
		// only the op's own calls.
		before, opStart := snapshot(inst.db), time.Now()
		rec.op = i
		root := rec.begin(l.name)
		defer func() {
			rec.end()
			d := snapshot(inst.db).minus(before)
			for _, q := range inst.db.QueryStats() {
				if !q.Start.Before(opStart) {
					l.queueWaitNs += q.Counters["queue_wait_nanos"]
				}
			}
			rec.spans[root].Counters = d
			l.deltas.add(d)
		}()
	}
	if inst.prepare != nil {
		if err := rec.span("prepare", func() error { return inst.prepare(i) }); err != nil {
			return fmt.Errorf("prepare op %d: %w", i, err)
		}
	}
	p0 := readProcess()
	t0 := time.Now()
	units, err := inst.op(i, rec)
	d := time.Since(t0)
	p1 := readProcess()
	if err == nil {
		err = rec.span("verify", func() error { return inst.verify(i) })
	}
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("op %d: %w", i, err)
		}
	} else {
		l.lat = append(l.lat, float64(d)/float64(time.Millisecond))
		l.busy += d
		l.units += units
		l.allocBytes += p1.allocBytes - p0.allocBytes
		l.heapPeak = max(l.heapPeak, p1.heapBytes)
	}
	if inst.cleanup != nil {
		if err := rec.span("cleanup", func() error { return inst.cleanup(i) }); err != nil {
			return fmt.Errorf("cleanup op %d: %w", i, err)
		}
	}
	return nil
}

// run issues ops back to back until the budget has elapsed, or exactly
// fixedOps of them when that is positive.
func (l *loop) run(budget time.Duration, fixedOps int, rec *recorder) error {
	if rec != nil {
		l.deltas = counters{}
	}
	start := time.Now()
	for n := 0; ; n++ {
		if fixedOps > 0 && n == fixedOps || fixedOps <= 0 && n > 0 && time.Since(start) >= budget {
			return nil
		}
		if err := l.one(rec); err != nil {
			return err
		}
	}
}

func (l *loop) p50() float64 {
	return percentile(sortedCopy(l.lat), 50)
}

// runOptions selects what one workload run measures.
type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

// runWorkload sets the workload up, checks its output, measures it and
// returns the contract result. Human-readable detail goes to w.
func runWorkload(wl workload, o runOptions, w io.Writer) (res result, err error) {
	cfg := runConfig{seed: o.seed, sz: fullSizes, outDir: o.outDir}
	rungTime := ladderRungTime
	if o.smoke {
		cfg.sz, rungTime = smokeSizes, smokeRungTime
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return res, err
	}

	// Set-up, repeated so that setup_s is a median; the last one is kept.
	var inst *instance
	var setups []float64
	for spent := time.Duration(0); ; {
		t0 := time.Now()
		if inst, err = wl.setup(cfg); err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d.Seconds())
		spent += d
		if o.trace || o.smoke || len(setups) >= maxSetups || len(setups) >= minSetups && spent >= setupBudget {
			break
		}
		inst.close()
	}
	defer func() { inst.close() }()
	if inst.reference != nil {
		if err := inst.reference(); err != nil {
			return res, fmt.Errorf("reference: %w", err)
		}
	}

	warm := &loop{name: wl.name, inst: inst}
	for i := 0; i < warmupOps; i++ {
		if err := warm.one(nil); err != nil {
			return res, err
		}
	}
	runtime.GC()

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= tracedLoopShare
	}
	timed := &loop{name: wl.name, inst: inst, next: warm.next}
	if err := timed.run(budget, cfg.sz.fixedOps, nil); err != nil {
		return res, err
	}
	var traced *loop
	var rec *recorder
	var sample []skv.Entry
	var gc0, gc1 processSample
	if o.trace {
		rec = newRecorder()
		traced = &loop{name: wl.name, inst: inst, next: timed.next}
		gc0 = readProcess()
		if err := traced.run(budget, cfg.sz.fixedOps, rec); err != nil {
			return res, err
		}
		gc1 = readProcess()
		if sample, err = sampleEntries(inst.db, inst.sampleTable, inst.vertices); err != nil {
			return res, fmt.Errorf("sampling %s: %w", inst.sampleTable, err)
		}
	}
	var finishErr error
	if inst.finish != nil {
		finishErr = inst.finish()
	}

	var firstErr error
	for _, l := range []*loop{warm, timed, traced} {
		if l == nil {
			continue
		}
		res.Attempted += l.attempted
		res.Failed += l.failed
		if firstErr == nil {
			firstErr = l.firstErr
		}
	}
	if finishErr != nil {
		// The end-of-run check covers every acknowledged op at once.
		res.Failed = res.Attempted
		firstErr = finishErr
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(w, "workload    %s (seed %d)\n", wl.name, o.seed)
	fmt.Fprintf(w, "why         %s\n", wl.why)
	fmt.Fprintf(w, "input       %s\n", inst.input)
	fmt.Fprintf(w, "fail_ratio  %d/%d\n", res.Failed, res.Attempted)
	if firstErr != nil {
		fmt.Fprintf(w, "first error %v\n", firstErr)
	}
	if len(timed.lat) == 0 {
		return res, fmt.Errorf("no op succeeded: %w", firstErr)
	}

	if !o.trace {
		sorted := sortedCopy(timed.lat)
		pct, supported := tailPercentile(len(sorted))
		values := map[string]float64{
			"op_p50_ms":       percentile(sorted, 50),
			"op_tail_ms":      percentile(sorted, pct),
			"throughput_eps":  float64(timed.units) / timed.busy.Seconds(),
			"alloc_mb_per_op": float64(timed.allocBytes) / float64(len(sorted)) / 1e6,
			"setup_s":         median(setups),
		}
		res.Metrics = toMetrics(endToEnd, values)
		fmt.Fprintf(w, "timed       %d ops in %.2f s, 1 closed-loop client, %d warm-up ops\n", len(sorted), timed.busy.Seconds(), warmupOps)
		note := ""
		if !supported {
			note = fmt.Sprintf(" (fewer than %d samples beyond it)", minBeyond)
		}
		fmt.Fprintf(w, "tail_pct    p%g%s\n", pct, note)
		fmt.Fprintf(w, "work unit   %s (%d per op on average)\n", inst.unit, timed.units/int64(len(sorted)))
		fmt.Fprintf(w, "set-ups     %d, median reported\n", len(setups))
		printMetrics(w, endToEnd, values)
		return res, nil
	}

	if len(traced.lat) == 0 {
		return res, fmt.Errorf("no traced op succeeded: %w", firstErr)
	}
	fillSelf(rec.spans)
	spanFile := filepath.Join(o.outDir, "trace-"+wl.name+".json")
	if err := writeSpans(spanFile, rec.spans); err != nil {
		return res, err
	}
	unit, err := ladder(sample, filepath.Join(o.outDir, "ladder-"+wl.name), rungTime)
	if err != nil {
		return res, fmt.Errorf("ladder: %w", err)
	}
	values := layerCounts(inst, traced, gc1.gcCPU-gc0.gcCPU, gc1.totalCPU-gc0.totalCPU)
	for k, v := range unit {
		values[k] = v
	}
	values["trace_overhead"] = traced.p50()/timed.p50() - 1
	values["trace_span_coverage"] = median(coverage(rec.spans))
	res.Metrics = toMetrics(perLayer, values)
	fmt.Fprintf(w, "traced      %d ops (untraced control: %d ops), %d spans in %s\n", len(traced.lat), len(timed.lat), len(rec.spans), spanFile)
	fmt.Fprintf(w, "ladder      %d entries sampled from table %s\n", len(sample), inst.sampleTable)
	printMetrics(w, perLayer, values)
	printShares(w, inst, values, traced.p50())
	return res, nil
}

// layerCounts turns the traced loop's counter deltas into the per-op
// counts and ratios of the layers the workload exercised.
func layerCounts(inst *instance, l *loop, gcCPU, totalCPU float64) map[string]float64 {
	ops := float64(len(l.lat))
	d := func(name string) float64 { return float64(l.deltas[name]) }
	ratio := func(part, rest float64) float64 {
		if part+rest == 0 {
			return 0
		}
		return part / (part + rest)
	}
	entries := d("entries_scanned") + d("entries_written")
	lookups := d("cache_hits") + d("cache_misses")
	v := map[string]float64{
		"iterator.pp_per_op":              float64(inst.serverPP),
		"iterator.fold_ratio":             ratio(d("partial_products_folded"), d("entries_written")),
		"accumulo.entries_scanned_per_op": d("entries_scanned") / ops,
		"accumulo.entries_written_per_op": d("entries_written") / ops,
		"accumulo.rpcs_per_op":            d("rpcs") / ops,
		"core.passes_per_op":              d("tablet_scans") / ops,
		"plan.scratch_tables_per_op":      d("scratch_tables_created") / ops,
		"rfile.blocks_per_op":             lookups / ops,
		"cache.hit_ratio":                 ratio(d("cache_hits"), d("cache_misses")),
		"rfile.bloom_skip_ratio":          ratio(d("bloom_negatives"), lookups),
		"rfile.locality_skip_ratio":       ratio(d("locality_blocks_skipped"), lookups),
		"tablet.freezes":                  d("memtable_freezes") / ops,
		"tablet.stall_frac":               d("write_stall_nanos") / float64(l.busy),
		"store.compactions":               d("major_compactions") / ops,
		"sched.queue_wait_frac":           float64(l.queueWaitNs) / float64(l.busy),
		"process.heap_peak_mb":            float64(l.heapPeak) / 1e6,
	}
	if entries > 0 {
		v["accumulo.wire_bytes_per_entry"] = d("wire_bytes") / entries
	}
	if totalCPU > 0 {
		v["process.gc_cpu_frac"] = gcCPU / totalCPU
	}
	return v
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, values[d.Name], d.Unit)
	}
}

// printShares prints, per layer, the workload's count per op, the
// ladder's unit cost and their product as a share of the op's median
// time. The shares are computed, not measured: rungs overlap (the
// client's scan rung contains the codec's) and run without contention,
// so they neither sum to one nor bound each other.
func printShares(w io.Writer, inst *instance, v map[string]float64, opMs float64) {
	wire := v["accumulo.entries_scanned_per_op"] + v["accumulo.entries_written_per_op"]
	rtt := v["transport.inproc_rtt_us"]
	if inst.tcp {
		rtt = v["transport.tcp_rtt_us"]
	}
	perEntry := func(rate string) float64 { return 1e6 / v[rate] } // µs
	type row struct {
		layer     string
		count, us float64
	}
	rows := []row{
		{"skv.encode", wire, perEntry("skv.encode_eps")},
		{"skv.decode", wire, perEntry("skv.decode_eps")},
		{"tablet.write", v["accumulo.entries_written_per_op"], perEntry("tablet.write_eps")},
		{"iterator.twotable", v["iterator.pp_per_op"], perEntry("iterator.twotable_pps")},
		{"transport.rtt", v["accumulo.rpcs_per_op"], rtt},
		{"accumulo.scan", v["accumulo.entries_scanned_per_op"], perEntry("accumulo.scan_eps")},
		{"assoc.fold", v["accumulo.entries_scanned_per_op"], perEntry("assoc.fold_eps")},
	}
	if inst.durable {
		rows = append(rows, row{"wal.append", v["accumulo.entries_written_per_op"], perEntry("wal.append_eps")})
	}
	fmt.Fprintf(w, "est_share (computed: count per op × ladder unit cost ÷ traced op p50 %.3f ms)\n", opMs)
	fmt.Fprintf(w, "  %-20s %14s %14s %10s\n", "layer", "count/op", "unit cost µs", "est_share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %14.1f %14.4f %10.3f\n", r.layer, r.count, r.us, r.count*r.us/(opMs*1e3))
	}
}

// sampleEntries reads up to ladderSample entries of a vertex-keyed table
// in chunks that start at evenly spaced vertex ids, so a skewed table's
// sample is not one hot row. Chunks that overlap are merged, so the
// result is sorted and duplicate-free.
func sampleEntries(db *graphulo.DB, table string, vertices int) ([]skv.Entry, error) {
	const chunks = 20
	var out []skv.Entry
	for c := 0; c < chunks; c++ {
		sc, err := db.Connector().CreateScanner(table)
		if err != nil {
			return nil, err
		}
		sc.SetRange(skv.RowRange(schema.VertexName(c*vertices/chunks), ""))
		st, err := sc.Stream()
		if err != nil {
			return nil, err
		}
		taken := 0
		for e, ok := st.Next(); ok && taken < ladderSample/chunks; e, ok = st.Next() {
			if len(out) == 0 || skv.Compare(out[len(out)-1].K, e.K) < 0 {
				out = append(out, e)
				taken++
			}
		}
		err = st.Err()
		st.Close()
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("table %s is empty", table)
	}
	return out, nil
}
