package accumulo

import (
	"fmt"
	"testing"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// TestBackgroundFlushFolds is the acceptance test for flushing through
// the table's minc stack: on a sum-combined table with a small memtable,
// repeated +1 batches to a few cells freeze memtables in the background,
// and once they settle every run a flush made holds one entry per cell
// of its tablet, while scans return the same sums. It holds in memory
// and on a data directory, in the halves of a split (a half's first run
// is the split's merged view, not a flush) and after a reopen. A table
// with no minc iterators flushes its memtables unchanged: its runs keep
// every raw entry.
func TestBackgroundFlushFolds(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { backgroundFlushFolds(t, durable) })
	}
}

func backgroundFlushFolds(t *testing.T, durable bool) {
	cfg := Config{TabletServers: 2, MemLimit: 32, WireBatch: 16}
	if durable {
		cfg.DataDir = t.TempDir()
	}
	mc, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { mc.Close() }()
	ops := mc.Connector().TableOperations()
	if err := ops.EnsureCombiner("S", "sum"); err != nil {
		t.Fatal(err)
	}
	if err := ops.Create("P"); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator("P", "versioning"); err != nil {
		t.Fatal(err)
	}

	cells := []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}
	const reps = 24 // 192 entries per round: 6 memtables' worth
	written, rawP := 0, 0
	round := func() {
		t.Helper()
		for _, table := range []string{"S", "P"} {
			w, err := mc.Connector().CreateBatchWriter(table, BatchWriterConfig{MaxBufferEntries: len(cells)})
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < reps; rep++ {
				for _, c := range cells {
					if err := w.PutFloat(c, "", "x", 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		written += reps
		rawP += reps * len(cells)
	}
	// settle waits out the background flushes and returns each tablet's
	// run sizes and the cells in its range.
	settle := func(table string) (sizes [][]int, hosted []int) {
		t.Helper()
		meta, err := mc.getTable(table)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range meta.tablets {
			if err := ref.tab.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, c := range cells {
				if c >= ref.start && (ref.end == "" || c < ref.end) {
					n++
				}
			}
			sizes, hosted = append(sizes, ref.tab.RunSizes()), append(hosted, n)
		}
		return sizes, hosted
	}
	check := func(stage string, skipFirst bool) {
		t.Helper()
		sizes, hosted := settle("S")
		flushed := 0
		for i, runs := range sizes {
			if skipFirst && len(runs) > 0 {
				runs = runs[1:]
			}
			for _, n := range runs {
				if n > hosted[i] {
					t.Fatalf("%s: tablet %d runs %v: a run holds more than its %d cells", stage, i, sizes[i], hosted[i])
				}
				flushed++
			}
		}
		if flushed == 0 {
			t.Fatalf("%s: runs %v: no background flush", stage, sizes)
		}
		got := scanTable(t, mc.Connector(), "S")
		if len(got) != len(cells) {
			t.Fatalf("%s: scan of S = %d cells, want %d", stage, len(got), len(cells))
		}
		for _, e := range got {
			if v, _ := skv.DecodeFloat(e.V); v != float64(written) {
				t.Fatalf("%s: %s = %v, want %d", stage, e.K.Row, v, written)
			}
		}
		// P keeps every raw entry: its runs plus its memtables.
		meta, _ := mc.getTable("P")
		inRuns, total := 0, 0
		for _, ref := range meta.tablets {
			if err := ref.tab.WaitFlush(); err != nil {
				t.Fatal(err)
			}
			for _, n := range ref.tab.RunSizes() {
				inRuns += n
			}
			total += ref.tab.EntryEstimate()
		}
		if inRuns == 0 || total != rawP {
			t.Fatalf("%s: P holds %d entries (%d in runs), want all %d written", stage, total, inRuns, rawP)
		}
		if got := scanTable(t, mc.Connector(), "P"); len(got) != rawP {
			t.Fatalf("%s: scan of P = %d entries, want %d", stage, len(got), rawP)
		}
	}

	round()
	check("first load", false)

	// The halves of a split inherit the table's flush stack.
	for _, table := range []string{"S", "P"} {
		if err := ops.AddSplits(table, []string{"c4"}); err != nil {
			t.Fatal(err)
		}
	}
	round()
	check("after AddSplits", true)

	if !durable {
		return
	}
	// A reopened table's tablets flush through its minc stack too.
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	if mc, err = OpenMiniCluster(cfg); err != nil {
		t.Fatal(err)
	}
	sizes, _ := settle("S")
	before := make([]int, len(sizes))
	for i := range sizes {
		before[i] = len(sizes[i])
	}
	round()
	check("after reopen", true)
	sizes, _ = settle("S")
	for i := range sizes {
		if len(sizes[i]) <= before[i] {
			t.Fatalf("after reopen: tablet %d runs %v: no background flush since the reopen", i, sizes[i])
		}
	}
}

// TestFlushStackTakesNoTableLock races a background flush against
// AddSplits on one tablet. A major compaction holds the tablet's
// compaction lock while a freeze queues a flush behind it, and a split
// then takes the table's metadata lock and queues behind both. The
// flush built the table's minc stack before it queued, so it needs no
// table lock once the compaction lock is released; a flush that built
// the stack under that lock would wait on the split, which waits on it.
func TestFlushStackTakesNoTableLock(t *testing.T) {
	mc := NewMiniCluster(Config{TabletServers: 1, MemLimit: 8})
	defer mc.Close()
	conn := mc.Connector()
	if err := conn.TableOperations().EnsureCombiner("S", "sum"); err != nil {
		t.Fatal(err)
	}
	meta, err := mc.getTable("S")
	if err != nil {
		t.Fatal(err)
	}
	tab := meta.tablets[0].tab

	entered, release := make(chan struct{}), make(chan struct{})
	compactErr := make(chan error, 1)
	go func() {
		compactErr <- tab.MajorCompact(func(src iterator.SKVI) (iterator.SKVI, error) {
			return &gateIter{SKVI: src, entered: entered, release: release}, nil
		})
	}()
	<-entered
	w, err := conn.CreateBatchWriter("S", BatchWriterConfig{MaxBufferEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.PutFloat(fmt.Sprintf("r%03d", i), "", "x", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil { // the batch fills the memtable: a freeze
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the flush queues on the compaction lock
	splitErr := make(chan error, 1)
	go func() { splitErr <- conn.TableOperations().AddSplits("S", []string{"r004"}) }()
	for deadline := time.Now().Add(10 * time.Second); meta.mu.TryRLock(); {
		meta.mu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("AddSplits never took the table's metadata lock")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // the split queues on the compaction lock
	close(release)
	timeout := time.After(30 * time.Second)
	for _, c := range []chan error{compactErr, splitErr} {
		select {
		case err := <-c:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("a background flush and AddSplits deadlocked")
		}
	}
	got := scanTable(t, conn, "S")
	if len(got) != 8 {
		t.Fatalf("scan = %d cells, want 8", len(got))
	}
	for _, e := range got {
		if v, _ := skv.DecodeFloat(e.V); v != 1 {
			t.Fatalf("%s = %v, want 1", e.K.Row, v)
		}
	}
}

// gateIter holds a compaction at its Seek until release is closed,
// closing entered once it is there.
type gateIter struct {
	iterator.SKVI
	entered, release chan struct{}
}

func (g *gateIter) Seek(r skv.Range) error {
	close(g.entered)
	<-g.release
	return g.SKVI.Seek(r)
}
