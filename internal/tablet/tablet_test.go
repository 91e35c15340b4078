package tablet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"graphulo/internal/iterator"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

func ent(row, cq string, ts int64, v float64) skv.Entry {
	return skv.Entry{K: skv.Key{Row: row, ColQ: cq, Ts: ts}, V: skv.EncodeFloat(v)}
}

func scanAll(t *testing.T, tab *Tablet) []skv.Entry {
	t.Helper()
	it := tab.Snapshot()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMemtableInsertAndSnapshot(t *testing.T) {
	m := newMemtable()
	insertOne(m, ent("b", "q", 1, 2))
	insertOne(m, ent("a", "q", 1, 1))
	insertOne(m, ent("c", "q", 1, 3))
	snap := m.snapshot()
	if len(snap) != 3 || snap[0].K.Row != "a" || snap[2].K.Row != "c" {
		t.Fatalf("snapshot order wrong: %v", snap)
	}
	if m.count() != 3 || m.approxBytes() == 0 {
		t.Fatalf("count/bytes wrong")
	}
}

func TestMemtableOverwriteSameFullKey(t *testing.T) {
	m := newMemtable()
	insertOne(m, ent("r", "q", 7, 1))
	insertOne(m, ent("r", "q", 7, 99)) // same key incl. ts: overwrite
	snap := m.snapshot()
	if len(snap) != 1 {
		t.Fatalf("want 1 entry, got %d", len(snap))
	}
	if v, _ := skv.DecodeFloat(snap[0].V); v != 99 {
		t.Fatalf("overwrite lost: %v", v)
	}
}

func TestMemtableVersionsCoexist(t *testing.T) {
	m := newMemtable()
	insertOne(m, ent("r", "q", 1, 10))
	insertOne(m, ent("r", "q", 2, 20))
	snap := m.snapshot()
	if len(snap) != 2 {
		t.Fatalf("want 2 versions, got %d", len(snap))
	}
	// Newest first.
	if snap[0].K.Ts != 2 {
		t.Fatalf("version order wrong: %v", snap)
	}
}

func TestRunSeek(t *testing.T) {
	var entries []skv.Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, ent(fmt.Sprintf("row%04d", i), "q", 1, float64(i)))
	}
	r := newMemRun(entries)
	it := r.Iter()
	if err := it.Seek(skv.RowRange("row0500", "row0503")); err != nil {
		t.Fatal(err)
	}
	got, _ := iterator.Collect(it)
	if len(got) != 3 || got[0].K.Row != "row0500" || got[2].K.Row != "row0502" {
		t.Fatalf("run range scan wrong: %d entries", len(got))
	}
	// Seek before start and past end.
	it.Seek(skv.RowRange("", "row0002"))
	got, _ = iterator.Collect(it)
	if len(got) != 2 {
		t.Fatalf("open start scan got %d", len(got))
	}
	it.Seek(skv.RowRange("zzz", ""))
	if it.HasTop() {
		t.Fatalf("seek past end should be empty")
	}
}

func TestTabletWriteScan(t *testing.T) {
	tab := New("", "", 0, 1)
	tab.Write([]skv.Entry{ent("b", "y", 1, 2), ent("a", "x", 1, 1)})
	got := scanAll(t, tab)
	if len(got) != 2 || got[0].K.Row != "a" {
		t.Fatalf("scan wrong: %v", got)
	}
}

func TestTabletMinorCompactionPreservesData(t *testing.T) {
	tab := New("", "", 0, 2)
	var want []skv.Entry
	for i := 0; i < 100; i++ {
		e := ent(fmt.Sprintf("r%03d", i), "q", 1, float64(i))
		want = append(want, e)
		tab.Write([]skv.Entry{e})
		if i%25 == 24 {
			if err := tab.MinorCompact(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := scanAll(t, tab)
	if len(got) != len(want) {
		t.Fatalf("lost entries across compactions: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].K != want[i].K {
			t.Fatalf("entry %d key %v want %v", i, got[i].K, want[i].K)
		}
	}
}

func TestTabletAutoMinorCompaction(t *testing.T) {
	tab := New("", "", 10, 3)
	for i := 0; i < 35; i++ {
		tab.Write([]skv.Entry{ent(fmt.Sprintf("r%02d", i), "q", 1, 1)})
	}
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	tab.mu.Lock()
	nRuns := len(tab.runs)
	tab.mu.Unlock()
	if nRuns < 3 {
		t.Fatalf("expected automatic minor compactions, runs = %d", nRuns)
	}
	if got := scanAll(t, tab); len(got) != 35 {
		t.Fatalf("data lost: %d", len(got))
	}
}

func TestTabletMajorCompactionWithSummingStack(t *testing.T) {
	tab := New("", "", 0, 4)
	// Three versions of the same cell across different runs.
	tab.Write([]skv.Entry{ent("r", "q", 1, 1)})
	tab.MinorCompact(nil)
	tab.Write([]skv.Entry{ent("r", "q", 2, 10)})
	tab.MinorCompact(nil)
	tab.Write([]skv.Entry{ent("r", "q", 3, 100)})

	sum := func(src iterator.SKVI) (iterator.SKVI, error) {
		return iterator.NewCombinerIter(src, semiring.PlusMonoid), nil
	}
	if err := tab.MajorCompact(sum); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, tab)
	if len(got) != 1 {
		t.Fatalf("majc should collapse versions, got %d entries", len(got))
	}
	if v, _ := skv.DecodeFloat(got[0].V); v != 111 {
		t.Fatalf("sum = %v, want 111", v)
	}
	tab.mu.Lock()
	nRuns := len(tab.runs)
	tab.mu.Unlock()
	if nRuns != 1 {
		t.Fatalf("majc should leave one run, got %d", nRuns)
	}
}

// sumStack is a flush-stack provider for a sum-combined table.
func sumStack() func(iterator.SKVI) (iterator.SKVI, error) {
	return func(src iterator.SKVI) (iterator.SKVI, error) {
		return iterator.NewCombinerIter(src, semiring.PlusMonoid), nil
	}
}

// TestTabletFlushRunsFlushStack pins that a background flush folds
// through the flush stack: every run it makes holds one entry per cell,
// in the tablet and in both halves of a split, and the sums are intact.
// A half's first run is the split's merged view, not a flush.
func TestTabletFlushRunsFlushStack(t *testing.T) {
	tab := New("", "", 8, 1) // every 8 entries freeze
	tab.SetFlushStack(sumStack)
	ts := int64(0)
	write := func(tab *Tablet, rows ...string) {
		for i := 0; i < 40; i++ {
			ts++
			if err := tab.Write([]skv.Entry{ent(rows[i%len(rows)], "q", ts, 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tab.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(tab *Tablet, split bool, cells int, want float64) {
		t.Helper()
		sizes := tab.RunSizes()
		if len(sizes) < 3 {
			t.Fatalf("runs %v: want background flushes", sizes)
		}
		if split {
			sizes = sizes[1:]
		}
		for _, n := range sizes {
			if n > cells {
				t.Fatalf("runs %v: a run holds more than %d cells' entries", sizes, cells)
			}
		}
		got := map[string]float64{}
		for _, e := range scanAll(t, tab) {
			v, _ := skv.DecodeFloat(e.V)
			got[e.K.Row] += v
		}
		if len(got) != cells {
			t.Fatalf("scan %v: want %d cells", got, cells)
		}
		for row, v := range got {
			if v != want {
				t.Fatalf("scan %v: %s = %v, want %v", got, row, v, want)
			}
		}
	}
	write(tab, "a", "b", "c", "d")
	check(tab, false, 4, 10)
	left, right, err := tab.SplitAt("c")
	if err != nil {
		t.Fatal(err)
	}
	write(left, "a", "b")
	check(left, true, 2, 30)
	write(right, "c", "d")
	check(right, true, 2, 30)
}

// TestFlushStackReadAfterItsMemtables pins which stack a background
// flush folds with: only the memtables queued before it read the flush
// stack. A memtable frozen after an iterator change is left to its own
// flusher, so the stack the change replaced never folds writes made
// after it.
func TestFlushStackReadAfterItsMemtables(t *testing.T) {
	dropAll := func(src iterator.SKVI) (iterator.SKVI, error) {
		return iterator.NewColumnFilterIter(src, "no-such-family"), nil
	}
	var changed atomic.Bool
	read := make(chan struct{}, 4)
	tab := New("", "", 4, 1)
	tab.SetFlushStack(func() func(iterator.SKVI) (iterator.SKVI, error) {
		defer func() { read <- struct{}{} }()
		if changed.Load() {
			return nil // the table now keeps every entry
		}
		return dropAll
	})
	// Hold the compaction lock, so both flushers read their stacks
	// before either drains.
	tab.compactMu.Lock()
	writeSeq(t, tab, 0, 4) // freezes; its flusher reads dropAll
	<-read
	changed.Store(true)
	writeSeq(t, tab, 4, 8) // freezes after the change
	<-read
	tab.compactMu.Unlock()
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, tab)
	if len(got) != 4 || got[0].K.Row != seqEntry(4).K.Row {
		t.Fatalf("scan = %v, want the 4 entries written after the change", got)
	}
}

func TestTabletSplit(t *testing.T) {
	tab := New("", "", 0, 7)
	for i := 0; i < 50; i++ {
		tab.Write([]skv.Entry{ent(fmt.Sprintf("r%02d", i), "q", 1, float64(i))})
		if i == 20 {
			tab.MinorCompact(nil)
		}
	}
	left, right, err := tab.SplitAt("r25")
	if err != nil {
		t.Fatal(err)
	}
	if left.EndRow != "r25" || right.StartRow != "r25" {
		t.Fatalf("split bounds wrong: %q %q", left.EndRow, right.StartRow)
	}
	lg := scanAll(t, left)
	rg := scanAll(t, right)
	if len(lg)+len(rg) != 50 {
		t.Fatalf("split lost entries: %d + %d", len(lg), len(rg))
	}
	for _, e := range lg {
		if e.K.Row >= "r25" {
			t.Fatalf("left tablet has right-side row %q", e.K.Row)
		}
	}
	for _, e := range rg {
		if e.K.Row < "r25" {
			t.Fatalf("right tablet has left-side row %q", e.K.Row)
		}
	}
}

func TestEntryEstimate(t *testing.T) {
	tab := New("", "", 0, 8)
	tab.Write([]skv.Entry{ent("a", "q", 1, 1), ent("b", "q", 1, 1)})
	tab.MinorCompact(nil)
	tab.Write([]skv.Entry{ent("c", "q", 1, 1)})
	if n := tab.EntryEstimate(); n != 3 {
		t.Fatalf("estimate = %d, want 3", n)
	}
}

// Property: after any sequence of writes and compactions, a full scan
// returns exactly the distinct full keys written (newest value per full
// key), in sorted order.
func TestQuickTabletScanCompleteAndSorted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := New("", "", 0, seed)
		written := map[skv.Key]float64{}
		for op := 0; op < 60; op++ {
			switch rng.Intn(10) {
			case 8:
				tab.MinorCompact(nil)
			case 9:
				tab.MajorCompact(nil)
			default:
				e := ent(
					fmt.Sprintf("r%d", rng.Intn(10)),
					fmt.Sprintf("q%d", rng.Intn(3)),
					int64(rng.Intn(5)),
					float64(rng.Intn(100)))
				written[e.K] = float64(rng.Intn(100))
				e.V = skv.EncodeFloat(written[e.K])
				tab.Write([]skv.Entry{e})
			}
		}
		it := tab.Snapshot()
		if err := it.Seek(skv.FullRange()); err != nil {
			return false
		}
		got, err := iterator.Collect(it)
		if err != nil {
			return false
		}
		if len(got) != len(written) {
			return false
		}
		var keys []skv.Key
		for k := range written {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return skv.Compare(keys[i], keys[j]) < 0 })
		for i, e := range got {
			if e.K != keys[i] {
				return false
			}
			if v, _ := skv.DecodeFloat(e.V); v != written[e.K] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: scans taken concurrently with writes never crash and always
// return a sorted stream (snapshot isolation).
func TestConcurrentWriteScan(t *testing.T) {
	tab := New("", "", 50, 99)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			tab.Write([]skv.Entry{ent(fmt.Sprintf("r%04d", i%500), "q", int64(i), float64(i))})
		}
	}()
	for j := 0; j < 50; j++ {
		it := tab.Snapshot()
		if err := it.Seek(skv.FullRange()); err != nil {
			t.Fatal(err)
		}
		var prev *skv.Key
		for it.HasTop() {
			k := it.Top().K
			if prev != nil && skv.Compare(*prev, k) > 0 {
				t.Fatalf("unsorted scan under concurrency")
			}
			kk := k
			prev = &kk
			it.Next()
		}
	}
	<-done
}
