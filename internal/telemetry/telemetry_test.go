package telemetry

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{64 * time.Second, 26},
		{67 * time.Second, 26}, // bucket 26 bound is 1µs<<26 ≈ 67.1s
		{68 * time.Second, NumBuckets - 1},
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d.Nanoseconds()); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// le-semantics: each bound lands in its own bucket, bound+1ns in the next.
	for i := 0; i < NumBuckets-1; i++ {
		b := BucketBound(i)
		if got := bucketIndex(b.Nanoseconds()); got != i {
			t.Errorf("bound %v landed in bucket %d, want %d", b, got, i)
		}
	}
	if BucketBound(NumBuckets-1) != -1 || BucketBound(-1) != -1 {
		t.Errorf("out-of-range BucketBound should return -1")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond) // bucket 0
	}
	h.Observe(time.Second) // bucket 20
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if got := s.Quantile(0.50); got != time.Microsecond {
		t.Errorf("p50 = %v, want 1µs", got)
	}
	if got := s.Quantile(0.99); got != time.Microsecond {
		t.Errorf("p99 = %v, want 1µs (99 of 100 in bucket 0)", got)
	}
	if got := s.Quantile(1.0); got != BucketBound(20) {
		t.Errorf("p100 = %v, want bucket-20 bound %v", got, BucketBound(20))
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty quantile should be 0")
	}
	// The +Inf bucket reports the largest finite bound.
	var inf Histogram
	inf.Observe(time.Hour)
	if got := inf.Snapshot().Quantile(0.5); got != BucketBound(NumBuckets-2) {
		t.Errorf("+Inf quantile = %v, want %v", got, BucketBound(NumBuckets-2))
	}
	// Negative durations clamp to zero rather than corrupting the sum.
	var neg Histogram
	neg.Observe(-time.Second)
	if ns := neg.Snapshot(); ns.SumNanos != 0 || ns.Buckets[0] != 1 {
		t.Errorf("negative observation: sum=%d bucket0=%d", ns.SumNanos, ns.Buckets[0])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestHistogramFold(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(time.Second)
	b.Observe(2 * time.Second)
	a.Fold(b.Snapshot())
	s := a.Snapshot()
	if s.Count != 3 {
		t.Fatalf("folded count = %d, want 3", s.Count)
	}
	wantSum := (time.Microsecond + 3*time.Second).Nanoseconds()
	if s.SumNanos != wantSum {
		t.Fatalf("folded sum = %d, want %d", s.SumNanos, wantSum)
	}
}

func TestTrailerRoundTrip(t *testing.T) {
	q := NewRegistry(Options{Host: "daemon:1"}).StartPass(TraceID(0xdeadbeef), 77, "pass t [a,b)")
	q.Add(EntriesScanned, 1234)
	q.Add(PartialProductsFolded, 56)
	q.ObserveWriteBatch(3 * time.Millisecond)
	sp := q.StartSpan(0, "stack setup")
	sp.End()
	q.FinishPass(nil)

	enc := AppendTrailer(nil, q.Trailer())
	got, err := DecodeTrailer(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Counts.Get(EntriesScanned) != 1234 ||
		got.Counts.Get(PartialProductsFolded) != 56 ||
		got.Counts.Get(TabletScans) != 1 {
		t.Fatalf("counts mismatch: %+v", got.Counts)
	}
	if got.WriteBatch.Count != 1 {
		t.Fatalf("write-batch hist count = %d, want 1", got.WriteBatch.Count)
	}
	if got.ScanPass.Count != 1 {
		t.Fatalf("scan-pass hist count = %d, want 1 (FinishPass self-observation)", got.ScanPass.Count)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
	root := got.Spans[0]
	if root.Name != "pass t [a,b)" || root.Parent != 77 || root.Host != "daemon:1" || !root.Done {
		t.Fatalf("root span mismatch: %+v", root)
	}
	if got.Spans[1].Parent != root.ID {
		t.Fatalf("child span parent = %d, want root %d", got.Spans[1].Parent, root.ID)
	}
}

func TestTrailerDecodeHostile(t *testing.T) {
	q := NewRegistry(Options{Host: "h"}).StartPass(1, 2, "p")
	q.StartSpan(0, "x").End()
	q.FinishPass(nil)
	enc := AppendTrailer(nil, q.Trailer())

	// Every strict prefix must error, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeTrailer(enc[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeTrailer(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
	// Unknown version.
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := DecodeTrailer(bad); err == nil {
		t.Fatalf("unknown version accepted")
	}
	// Hostile span count far beyond payload.
	hostile := []byte{trailerVersion, 0 /* counters */, 0, 0, 0 /* hist1 */, 0, 0, 0 /* hist2 */, 0xFF, 0xFF, 0xFF, 0x7F /* span count */}
	if _, err := DecodeTrailer(hostile); err == nil {
		t.Fatalf("hostile span count accepted")
	}
	// Out-of-range counter index.
	oob := []byte{trailerVersion, 1, byte(NumCounters), 5, 0, 0, 0, 0, 0, 0, 0}
	if _, err := DecodeTrailer(oob); err == nil {
		t.Fatalf("out-of-range counter index accepted")
	}
	// A gauge or high-water index from a confused peer decodes, but its
	// value reaches no block: not the trailer's Counts, so neither a query
	// nor the process registry it is folded into.
	for _, c := range []Counter{ScansInFlight, MaxEntriesBuffered, QueriesQueued} {
		stray := []byte{trailerVersion, 2, byte(c), 5, byte(RPCs), 3, 0, 0, 0, 0, 0, 0, 0}
		got, err := DecodeTrailer(stray)
		if err != nil {
			t.Fatalf("%s index in a trailer rejected: %v", c, err)
		}
		reg := NewRegistry(Options{})
		q := reg.StartQuery("k")
		reg.FoldTrailer(q, &got)
		want := Counts{RPCs: 3}
		if got.Counts != want || q.Stats.Counts() != want || reg.Stats.Counts() != want {
			t.Fatalf("%s value folded: trailer %v query %v process %v", c, got.Counts, q.Stats.Counts(), reg.Stats.Counts())
		}
	}
}

// goldenTrailer is a version-3 trailer: counters TabletScans through
// QueueWaitNanos, counter i holding (i+1)*1000, two scan passes, one
// write batch, two spans.
const goldenTrailer = "031000e80701d00f02b81703a01f04882705f02e06d83607c03e08a84609904e0af8550be05d0cc8650db06d0e98750f807d02c08db701020a010b0101a0c21e010901020b070c706173732054205b612c62290b6461656d6f6e3a393437318080a8b1e39fe7cb1780897a010c0b0b737461636b2073657475700b6461656d6f6e3a39343731a08daeb1e39fe7cb17c0b80201"

// goldenTrailerV2 is the same trailer as encoded before the
// compaction-kick counter was dropped (version 2: counter i holding
// (i+1)*1000 over the 17 counters then TabletScans through
// QueueWaitNanos). Its indices mean different counters now, so it must
// be refused, not misread.
const goldenTrailerV2 = "021100e80701d00f02b81703a01f04882705f02e06d83607c03e08a84609904e0af8550be05d0cc8650db06d0e98750f807d10e8840102c08db701020a010b0101a0c21e010901020b070c706173732054205b612c62290b6461656d6f6e3a393437318080a8b1e39fe7cb1780897a010c0b0b737461636b2073657475700b6461656d6f6e3a39343731a08daeb1e39fe7cb17c0b80201"

// goldenTrailerV1 is the same trailer as encoded before shared_scan_folds
// was dropped (version 1: counter i holding (i+1)*1000 over the original
// 18 per-query counters). Its indices mean different counters now, so it
// must be refused, not misread.
const goldenTrailerV1 = "011200e80701d00f02b81703a01f04882705f02e06d83607c03e08a84609904e0af8550be05d0cc8650db06d0e98750f807d10e8840111d08c0102c08db701020a010b0101a0c21e010901020b070c706173732054205b612c62290b6461656d6f6e3a393437318080a8b1e39fe7cb1780897a010c0b0b737461636b2073657475700b6461656d6f6e3a39343731a08daeb1e39fe7cb17c0b80201"

// TestTrailerGoldenBytes pins wire compatibility: existing counters keep
// their indices within a trailer version, so a peer's trailer decodes to
// the same counts and re-encodes to the same bytes; a trailer of an
// earlier version is rejected by its version byte.
func TestTrailerGoldenBytes(t *testing.T) {
	raw, err := hex.DecodeString(goldenTrailer)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrailer(raw)
	if err != nil {
		t.Fatalf("golden trailer: %v", err)
	}
	var want Counts
	for c := TabletScans; c <= QueueWaitNanos; c++ {
		want[c] = int64(c+1) * 1000
	}
	if got.Counts != want {
		t.Fatalf("golden counts = %v, want %v", got.Counts, want)
	}
	if got.ScanPass.Count != 2 || got.ScanPass.SumNanos != 3_000_000 || got.WriteBatch.Count != 1 {
		t.Errorf("golden histograms: scan %+v write %+v", got.ScanPass, got.WriteBatch)
	}
	if len(got.Spans) != 2 || got.Spans[0].Name != "pass T [a,b)" || got.Spans[1].Parent != got.Spans[0].ID {
		t.Errorf("golden spans: %+v", got.Spans)
	}
	if again := AppendTrailer(nil, got); !bytes.Equal(again, raw) {
		t.Errorf("golden trailer re-encodes differently:\n got %x\nwant %x", again, raw)
	}

	for v, golden := range map[int]string{1: goldenTrailerV1, 2: goldenTrailerV2} {
		old, err := hex.DecodeString(golden)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("unknown trailer version %d", v)
		if _, err := DecodeTrailer(old); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d trailer: err = %v, want %s", v, err, want)
		}
	}
}

// FuzzDecodeTrailer: a trailer arrives from another process, so
// arbitrary bytes never panic the decoder, and whatever decodes
// re-encodes to bytes that decode to the same trailer.
func FuzzDecodeTrailer(f *testing.F) {
	golden, err := hex.DecodeString(goldenTrailer)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte{trailerVersion})
	f.Add([]byte{trailerVersion, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F}) // span count past the payload
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrailer(data)
		if err != nil {
			return
		}
		again, err := DecodeTrailer(AppendTrailer(nil, tr))
		if err != nil {
			t.Fatalf("re-decode of a decoded trailer failed: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", again, tr)
		}
	})
}

// TestCounterTableSurfaces ranges over every declared counter and checks
// each surface that reads the table: /metrics (family name, help, TYPE,
// value), the Counts JSON, and the trailer codec (a value ships iff its
// kind is a total).
func TestCounterTableSurfaces(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		d := descs[c]
		if d.name == "" || d.help == "" || seen[d.name] {
			t.Fatalf("counter %d: name %q (duplicate=%v) help %q", c, d.name, seen[d.name], d.help)
		}
		seen[d.name] = true
		want := int64(100 + c)
		reg := NewRegistry(Options{})
		if d.kind == kindReadGauge {
			if strings.Contains(string(renderMetrics(reg)), "graphulo_"+d.name) {
				t.Errorf("%s: exported without a read function", c)
			}
			reg.GaugeFunc(c, func() int64 { return want })
		} else {
			reg.Stats.Add(c, want)
		}
		counts := reg.Counts()

		family, typ := "graphulo_"+d.name, "gauge"
		if d.kind == kindCounter {
			family, typ = family+"_total", "counter"
		}
		metrics := string(renderMetrics(reg))
		for _, line := range []string{
			fmt.Sprintf("# HELP %s %s\n", family, d.help),
			fmt.Sprintf("# TYPE %s %s\n", family, typ),
			fmt.Sprintf("\n%s %d\n", family, want),
		} {
			if !strings.Contains(metrics, line) {
				t.Errorf("%s: /metrics lacks %q", c, line)
			}
		}
		if d.high != 0 && counts[d.high] != want {
			t.Errorf("%s: high-water %s = %d, want %d", c, d.high, counts[d.high], want)
		}

		buf, err := json.Marshal(counts)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]int64
		if err := json.Unmarshal(buf, &m); err != nil {
			t.Fatal(err)
		}
		if m[d.name] != want || len(m) != int(NumCounters) {
			t.Errorf("%s: Counts JSON has %d under %q among %d names", c, m[d.name], d.name, len(m))
		}
		var back Counts
		if err := json.Unmarshal(buf, &back); err != nil || back != counts {
			t.Errorf("%s: Counts JSON does not round-trip (err %v)", c, err)
		}

		dec, err := DecodeTrailer(AppendTrailer(nil, Trailer{Counts: counts}))
		if err != nil {
			t.Fatal(err)
		}
		if shipped := dec.Counts[c] == want; shipped != (d.kind == kindCounter) {
			t.Errorf("%s (kind %d): shipped in a trailer = %v", c, d.kind, shipped)
		}
	}
}

// TestTenantFamilies checks the per-tenant families are the query count
// plus exactly the counters the table marks per-tenant, summed over the
// tenant's finished kernel queries.
func TestTenantFamilies(t *testing.T) {
	reg := NewRegistry(Options{})
	for i := 0; i < 2; i++ {
		q := reg.StartQuery("k").WithTenant("t0")
		for c := Counter(0); c < NumCounters; c++ {
			q.Add(c, 5)
		}
		q.Finish(nil)
	}
	metrics := string(renderMetrics(reg))
	if !strings.Contains(metrics, `graphulo_tenant_queries_total{tenant="t0"} 2`) {
		t.Errorf("tenant query count missing:\n%s", metrics)
	}
	for c, d := range descs {
		line := fmt.Sprintf("graphulo_tenant_%s_total{tenant=\"t0\"} 10\n", d.name)
		if served := strings.Contains(metrics, line); served != d.tenant {
			t.Errorf("%s: per-tenant family served = %v, table says %v", Counter(c), served, d.tenant)
		}
	}
}

func TestRegistryRecentRing(t *testing.T) {
	r := NewRegistry(Options{Host: "coord", MaxRecent: 3})
	for i := 0; i < 5; i++ {
		q := r.StartQuery(fmt.Sprintf("k%d", i))
		q.Finish(nil)
	}
	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("recent = %d, want 3", len(snaps))
	}
	// Newest first: k4, k3, k2.
	for i, want := range []string{"k4", "k3", "k2"} {
		if snaps[i].Kernel != want {
			t.Errorf("snaps[%d] = %s, want %s", i, snaps[i].Kernel, want)
		}
	}
	if r.QueriesStarted() != 5 {
		t.Errorf("started = %d, want 5", r.QueriesStarted())
	}
	// In-flight queries are listed too.
	live := r.StartQuery("live")
	found := false
	for _, s := range r.Snapshot() {
		if s.Kernel == "live" && !s.Done {
			found = true
		}
	}
	if !found {
		t.Fatalf("in-flight query missing from snapshot")
	}
	live.Finish(nil)
	live.Finish(nil) // double Finish must be harmless

	// Listed passes retire into the same ring: none stays in flight.
	lister := NewRegistry(Options{MaxRecent: 3, ListPasses: true})
	for i := 0; i < 5; i++ {
		lister.StartPass(1, 0, "pass").FinishPass(nil)
	}
	snaps = lister.Snapshot()
	if len(snaps) != 3 || !snaps[0].Done || lister.Stats.Get(ScansInFlight) != 0 {
		t.Fatalf("after 5 finished passes: %d listed (want 3), newest done=%v, %d in flight",
			len(snaps), snaps[0].Done, lister.Stats.Get(ScansInFlight))
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(Options{Host: "c", SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf, ListPasses: true})
	q := r.StartQuery("TableMult")
	q.Add(EntriesScanned, 9)
	q.ScanPass.Observe(5 * time.Millisecond)
	time.Sleep(time.Millisecond)
	q.Finish(fmt.Errorf("boom"))

	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("log line not newline-terminated: %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if rec["kernel"] != "TableMult" || rec["error"] != "boom" {
		t.Fatalf("unexpected record: %v", rec)
	}
	stats := rec["stats"].(map[string]any)
	if stats["entries_scanned"].(float64) != 9 {
		t.Fatalf("stats missing: %v", stats)
	}
	// Remote passes never hit the slow log.
	buf.Reset()
	listed := len(r.Snapshot())
	p := r.StartPass(7, 0, "pass")
	time.Sleep(time.Millisecond)
	p.FinishPass(nil)
	if buf.Len() != 0 {
		t.Fatalf("remote pass logged as slow query: %s", buf.String())
	}
	// A registry built with ListPasses tracks the pass; one without hands
	// back a detached record.
	if got := len(r.Snapshot()); got != listed+1 {
		t.Fatalf("listing registry shows %d records after a pass, want %d", got, listed+1)
	}
	plain := NewRegistry(Options{Host: "c"})
	plain.StartPass(7, 0, "pass").FinishPass(nil)
	if got := len(plain.Snapshot()); got != 0 {
		t.Fatalf("non-listing registry tracked a pass: %d records", got)
	}
}

func TestQuerySpanBudget(t *testing.T) {
	q := NewRegistry(Options{Host: "h"}).StartPass(1, 0, "p")
	for i := 0; i < maxSpans+10; i++ {
		q.StartSpan(0, "s")
	}
	snap := q.Snapshot()
	if len(snap.Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(snap.Spans), maxSpans)
	}
	if snap.Dropped != 11 { // root occupied one slot
		t.Fatalf("dropped = %d, want 11", snap.Dropped)
	}
}

func TestNilQuerySafe(t *testing.T) {
	var q *Query
	q.Add(WireBytes, 1)
	q.ObserveWriteBatch(time.Second)
	q.FoldTrailer(&Trailer{})
	q.StartSpan(0, "x").End()
	q.FinishPass(nil)
	q.Finish(nil)
	if q.Trace() != 0 || q.RootID() != 0 {
		t.Fatal("nil query should report zero IDs")
	}
}

func TestFoldTrailerLinksSpans(t *testing.T) {
	coord := NewRegistry(Options{Host: "coordinator"})
	q := coord.StartQuery("TableMult")
	scan := q.StartSpan(0, "scan T")

	pass := NewRegistry(Options{Host: "daemon:9471"}).StartPass(q.Trace(), scan.ID(), "pass T [a,b)")
	pass.Add(EntriesScanned, 100)
	pass.FinishPass(nil)
	tr := pass.Trailer()
	enc := AppendTrailer(nil, tr)
	dec, err := DecodeTrailer(enc)
	if err != nil {
		t.Fatal(err)
	}
	q.FoldTrailer(&dec)
	scan.End()
	q.Finish(nil)

	snap := q.Snapshot()
	if snap.Stats.Get(EntriesScanned) != 100 || snap.Stats.Get(TabletScans) != 1 {
		t.Fatalf("folded stats wrong: %+v", snap.Stats)
	}
	// The daemon pass span must parent onto the coordinator's scan span.
	ids := map[uint64]SpanSnapshot{}
	for _, s := range snap.Spans {
		ids[s.ID] = s
	}
	var passSpan *SpanSnapshot
	for _, s := range snap.Spans {
		if s.Host == "daemon:9471" {
			cp := s
			passSpan = &cp
		}
	}
	if passSpan == nil {
		t.Fatal("daemon span not folded in")
	}
	parent, ok := ids[passSpan.Parent]
	if !ok || parent.Name != "scan T" {
		t.Fatalf("pass span parent unresolved: %+v", passSpan)
	}
	if parent.Parent != q.RootID() {
		t.Fatalf("scan span should parent on root")
	}
	// FormatTree renders the full tree with the remote host visible.
	tree := FormatTree(snap)
	if !strings.Contains(tree, "daemon:9471") || !strings.Contains(tree, "scan T") {
		t.Fatalf("tree missing spans:\n%s", tree)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry(Options{Host: "coordinator"})
	q := reg.StartQuery("Jaccard")
	q.ScanPass.Observe(2 * time.Millisecond)
	reg.ScanPass.Observe(2 * time.Millisecond)
	reg.WALSync.Observe(40 * time.Microsecond)
	q.Finish(nil)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"graphulo_queries_total 1",
		"# TYPE graphulo_scan_pass_seconds histogram",
		"graphulo_scan_pass_seconds_count 1",
		"graphulo_wal_sync_seconds_count 1",
		"graphulo_kernel_seconds_count 1",
		`le="+Inf"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
	// Cumulative buckets: the +Inf bucket equals the count.
	if !strings.Contains(metrics, "graphulo_scan_pass_seconds_bucket{le=\"+Inf\"} 1") {
		t.Errorf("+Inf bucket should be cumulative total:\n%s", metrics)
	}

	queries := get("/queries")
	var out struct {
		Host    string          `json:"host"`
		Queries []QuerySnapshot `json:"queries"`
	}
	if err := json.Unmarshal([]byte(queries), &out); err != nil {
		t.Fatalf("/queries not JSON: %v", err)
	}
	if out.Host != "coordinator" || len(out.Queries) != 1 || out.Queries[0].Kernel != "Jaccard" {
		t.Fatalf("unexpected /queries: %s", queries)
	}

	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Fatal("pprof unreachable")
	}
}

func TestTraceIDString(t *testing.T) {
	if got := TraceID(0xab).String(); got != "00000000000000ab" {
		t.Fatalf("TraceID string = %q", got)
	}
	a, b := newID(), newID()
	if a == b || a == 0 {
		t.Fatalf("newID not unique: %x %x", a, b)
	}
}
