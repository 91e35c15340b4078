package tablet

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

func seqEntry(i int) skv.Entry {
	return skv.Entry{
		K: skv.Key{Row: fmt.Sprintf("r%05d", i), ColQ: "q", Ts: int64(i + 1)},
		V: skv.EncodeFloat(float64(i)),
	}
}

// noStack is a majc-stack provider for a table with no majc iterators.
func noStack() func(iterator.SKVI) (iterator.SKVI, error) { return nil }

// writeSeq writes entries [lo, hi) one batch each.
func writeSeq(t *testing.T, tab *Tablet, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := tab.Write([]skv.Entry{seqEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunBoundAfterWaitFlush ingests enough to spill many runs and
// checks the bound holds the moment WaitFlush returns, with no waiting
// beyond it, while the contents stay intact.
func TestRunBoundAfterWaitFlush(t *testing.T) {
	tab := New("", "", 8, 1) // tiny memtable: every 8 entries spill a run
	const maxRuns = 3
	var stats telemetry.StatSet
	tab.SetStats(&stats)
	tab.SetRunBound(NewRunBound(maxRuns, noStack))

	const n = 400
	for lo := 0; lo < n; lo += 50 {
		writeSeq(t, tab, lo, lo+50)
		if err := tab.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		if got := tab.RunCount(); got > maxRuns {
			t.Fatalf("after WaitFlush at %d entries: %d runs, bound %d", lo+50, got, maxRuns)
		}
	}
	if stats.Get(telemetry.MajorCompactions) == 0 {
		t.Fatal("no merge was counted")
	}
	if got := stats.Get(telemetry.MajorCompactionErrors); got != 0 {
		t.Fatalf("%d merges failed", got)
	}
	if got := scanAll(t, tab); len(got) != n {
		t.Fatalf("post-merge scan = %d entries, want %d", len(got), n)
	}
}

// TestRunBoundSkipsRetiredTablet pins the split race: a merge step on a
// split-away tablet is a no-op, as is a MajorCompact.
func TestRunBoundSkipsRetiredTablet(t *testing.T) {
	tab := New("", "", 4, 1)
	var stats telemetry.StatSet
	tab.SetStats(&stats)
	// Merges fail until the split, so the runs pile up past the bound.
	var healthy atomic.Bool
	tab.SetRunBound(NewRunBound(1, func() func(iterator.SKVI) (iterator.SKVI, error) {
		if healthy.Load() {
			return nil
		}
		return func(iterator.SKVI) (iterator.SKVI, error) { return nil, errors.New("majc stack broken") }
	}))
	writeSeq(t, tab, 0, 40)
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	left, right, err := tab.SplitAt("r00020")
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Retired() {
		t.Fatal("split receiver not retired")
	}
	preRuns := tab.RunCount()
	if preRuns <= 1 {
		t.Fatalf("setup: %d runs, want several", preRuns)
	}
	healthy.Store(true)
	tab.boundRuns()
	if err := tab.MajorCompact(nil); err != nil {
		t.Fatal(err)
	}
	if tab.RunCount() != preRuns || stats.Get(telemetry.MajorCompactions) != 0 {
		t.Fatalf("retired tablet was compacted: %d -> %d runs", preRuns, tab.RunCount())
	}
	if left.Retired() || right.Retired() {
		t.Fatal("fresh halves marked retired")
	}
}

// TestRunBoundMergeFailureLeavesRuns: a merge whose majc stack fails is
// counted and leaves the runs, never failing the flush; the next flush,
// with a healthy stack, merges.
func TestRunBoundMergeFailureLeavesRuns(t *testing.T) {
	tab := New("", "", 0, 1)
	var stats telemetry.StatSet
	tab.SetStats(&stats)
	var broken atomic.Bool
	broken.Store(true)
	tab.SetRunBound(NewRunBound(2, func() func(iterator.SKVI) (iterator.SKVI, error) {
		if !broken.Load() {
			return nil
		}
		return func(iterator.SKVI) (iterator.SKVI, error) { return nil, errors.New("majc stack broken") }
	}))
	for i := 0; i < 3; i++ {
		writeSeq(t, tab, 10*i, 10*i+10)
		if err := tab.MinorCompact(nil); err != nil {
			t.Fatalf("flush %d failed with the merge: %v", i, err)
		}
	}
	if got := stats.Get(telemetry.MajorCompactionErrors); got != 1 {
		t.Fatalf("major_compaction_errors = %d, want 1", got)
	}
	if got := tab.RunCount(); got != 3 {
		t.Fatalf("failed merge left %d runs, want the 3 flushed", got)
	}
	broken.Store(false)
	writeSeq(t, tab, 30, 40)
	if err := tab.MinorCompact(nil); err != nil {
		t.Fatal(err)
	}
	if got := tab.RunCount(); got > 2 {
		t.Fatalf("healthy flush left %d runs, bound 2", got)
	}
	if stats.Get(telemetry.MajorCompactions) == 0 || stats.Get(telemetry.MajorCompactionErrors) != 1 {
		t.Fatalf("compactions %d, errors %d after the healthy flush",
			stats.Get(telemetry.MajorCompactions), stats.Get(telemetry.MajorCompactionErrors))
	}
	if got := scanAll(t, tab); len(got) != 40 {
		t.Fatalf("scan = %d entries, want 40", len(got))
	}
}

// gateIter counts a merge in flight from its stack's construction to its
// exhaustion.
type gateIter struct {
	iterator.SKVI
	done     bool
	inFlight *atomic.Int64
}

func (g *gateIter) HasTop() bool {
	has := g.SKVI.HasTop()
	if !has && !g.done {
		g.done = true
		g.inFlight.Add(-1)
	}
	return has
}

// TestRunBoundOneMergePerTable: tablets sharing a bound merge one at a
// time, and while tablet A's merge is held in its stack, tablet B of the
// same table still drains its frozen queue.
func TestRunBoundOneMergePerTable(t *testing.T) {
	var inFlight, maxInFlight atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	bound := NewRunBound(1, func() func(iterator.SKVI) (iterator.SKVI, error) {
		return func(src iterator.SKVI) (iterator.SKVI, error) {
			n := inFlight.Add(1)
			for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
			}
			if held.CompareAndSwap(false, true) { // hold only the first merge
				close(entered)
				<-release
			}
			return &gateIter{SKVI: src, inFlight: &inFlight}, nil
		}
	})
	a, b := New("", "m", 0, 1), New("m", "", 4, 2)
	a.SetRunBound(bound)
	b.SetRunBound(bound)

	// A: two flushed runs, the second flush's merge held in its stack.
	if err := a.Write([]skv.Entry{ent("a", "q", 1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := a.MinorCompact(nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Write([]skv.Entry{ent("b", "q", 2, 1)}); err != nil {
		t.Fatal(err)
	}
	aDone := make(chan error, 1)
	go func() { aDone <- a.MinorCompact(nil) }()
	<-entered

	// B: 20 entries freeze 5 memtables. Its writers would stall for good
	// if its flushes waited on A's merge.
	bDrained := make(chan struct{})
	go func() {
		defer close(bDrained)
		for i := 0; i < 20; i++ {
			if err := b.Write([]skv.Entry{ent(fmt.Sprintf("n%02d", i), "q", int64(i+1), 1)}); err != nil {
				t.Error(err)
				return
			}
		}
		b.mu.Lock()
		for len(b.frozen) > 0 {
			b.flushCond.Wait()
		}
		b.mu.Unlock()
	}()
	select {
	case <-bDrained:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("tablet B's flushes waited on tablet A's merge")
	}
	if got := maxInFlight.Load(); got != 1 {
		close(release)
		t.Fatalf("%d merges of one table ran at once, want 1", got)
	}
	if got := b.RunCount(); got < 2 {
		close(release)
		t.Fatalf("B holds %d runs while A merges; want its flushes, unmerged", got)
	}

	close(release)
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	if err := b.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	if got := maxInFlight.Load(); got != 1 {
		t.Fatalf("%d merges of one table ran at once, want 1", got)
	}
	if a.RunCount() > 1 || b.RunCount() > 1 {
		t.Fatalf("runs after the merges: A %d, B %d, bound 1", a.RunCount(), b.RunCount())
	}
	if got := scanAll(t, b); len(got) != 20 {
		t.Fatalf("B scan = %d entries, want 20", len(got))
	}
}

// TestPickMergeGroup pins the size-tiered picker: similar-sized
// contiguous runs fold together, dissimilar large runs stay out of the
// group, and with no similar neighbours the cheapest pair is chosen.
func TestPickMergeGroup(t *testing.T) {
	cases := []struct {
		name   string
		sizes  []int
		lo, hi int
	}{
		{"steady ingest tier", []int{1000, 8, 8, 8, 8}, 1, 5},
		{"all similar folds everything", []int{8, 8, 8, 8}, 0, 4},
		{"two big one tier of small", []int{900, 800, 10, 10, 12}, 2, 5},
		{"within ratio includes both", []int{16, 8, 8}, 0, 3},
		{"no similar neighbours: cheapest pair", []int{1000, 100, 10}, 1, 3},
		{"cheapest pair not at the end", []int{10, 11, 400, 90}, 0, 2},
	}
	for _, c := range cases {
		lo, hi := pickMergeGroup(c.sizes, DefaultMergeRatio)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%s: pickMergeGroup(%v) = [%d,%d), want [%d,%d)",
				c.name, c.sizes, lo, hi, c.lo, c.hi)
		}
	}
}

// TestMergeRunsPartial folds a middle run group on an in-memory tablet
// and checks the untouched runs keep their identity and the scan stays
// byte-identical.
func TestMergeRunsPartial(t *testing.T) {
	tab := New("", "", 8, 1)
	const n = 40 // 5 runs of 8
	for i := 0; i < n; i++ {
		if err := tab.Write([]skv.Entry{seqEntry(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	if got := tab.RunSizes(); len(got) != 5 {
		t.Fatalf("run sizes = %v, want 5 runs", got)
	}
	before := scanAll(t, tab)
	if err := tab.MergeRuns(1, 4, nil); err != nil {
		t.Fatal(err)
	}
	want := []int{8, 24, 8}
	got := tab.RunSizes()
	if len(got) != len(want) {
		t.Fatalf("after merge run sizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after merge run sizes = %v, want %v", got, want)
		}
	}
	after := scanAll(t, tab)
	if len(after) != len(before) {
		t.Fatalf("merge changed entry count: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i].K != before[i].K || string(after[i].V) != string(before[i].V) {
			t.Fatalf("entry %d changed across merge: %v -> %v", i, before[i], after[i])
		}
	}
	// Stale indices must error, not merge the wrong group.
	if err := tab.MergeRuns(2, 5, nil); err == nil {
		t.Fatal("MergeRuns with out-of-range group succeeded")
	}
}

// TestRunBoundSizeTieredSkipsLargeRun pins the point of tiered
// picking: under steady small ingest the bound folds the fresh small
// tier and never rewrites the large old run (folding everything would
// rewrite the biggest run on every merge).
func TestRunBoundSizeTieredSkipsLargeRun(t *testing.T) {
	tab := New("", "", 8, 1)
	const bigN, maxRuns = 1000, 4
	var stats telemetry.StatSet
	tab.SetStats(&stats)
	tab.SetRunBound(NewRunBound(maxRuns, noStack))
	writeSeq(t, tab, 0, bigN)
	if err := tab.MajorCompact(nil); err != nil {
		t.Fatal(err)
	}
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	if got := tab.RunSizes(); len(got) != 1 || got[0] != bigN {
		t.Fatalf("setup run sizes = %v, want [%d]", got, bigN)
	}
	before := stats.Get(telemetry.MajorCompactions)

	const smallN = 200 // total small ingest stays well under bigN/2
	for lo := bigN; lo < bigN+smallN; lo += 25 {
		writeSeq(t, tab, lo, lo+25)
		if err := tab.WaitFlush(); err != nil {
			t.Fatal(err)
		}
		// Every fold that included the big run would have produced a
		// single larger run, so its size surviving unchanged proves it
		// was never rewritten.
		sizes := tab.RunSizes()
		if len(sizes) > maxRuns || sizes[0] != bigN {
			t.Fatalf("after WaitFlush at %d entries: run sizes = %v (bound %d, large run %d)", lo+25, sizes, maxRuns, bigN)
		}
	}
	if stats.Get(telemetry.MajorCompactions) == before {
		t.Fatal("the small tier was never merged")
	}
	if got := scanAll(t, tab); len(got) != bigN+smallN {
		t.Fatalf("post-merge scan = %d entries, want %d", len(got), bigN+smallN)
	}
}
