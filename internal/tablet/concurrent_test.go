package tablet

import (
	"fmt"
	"sync"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// TestMultiWriterStressInMemory hammers one in-memory tablet with many
// concurrent writers over a memtable small enough that freezes and
// background flushes race the writes, then checks nothing was lost:
// every written cell is present exactly once and the merged scan stays
// sorted. Run under -race this exercises the memtable's segment
// installs and cap merges, the freeze-and-swap protocol, and the frozen-queue
// backpressure together.
func TestMultiWriterStressInMemory(t *testing.T) {
	const writers, perWriter = 8, 400
	tab := New("", "", 64, 1) // tiny memtable: constant freezing under load
	stats := &telemetry.StatSet{}
	tab.SetStats(stats)

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := skv.Entry{
					K: skv.Key{Row: fmt.Sprintf("w%02d-r%05d", w, i), ColQ: "q", Ts: 1},
					V: skv.EncodeFloat(float64(i)),
				}
				if err := tab.Write([]skv.Entry{e}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}

	got := scanAll(t, tab)
	if len(got) != writers*perWriter {
		t.Fatalf("scan = %d entries, want %d", len(got), writers*perWriter)
	}
	seen := map[string]bool{}
	for i, e := range got {
		if i > 0 && skv.Compare(got[i-1].K, e.K) >= 0 {
			t.Fatalf("scan unsorted or duplicated at %d: %v then %v", i, got[i-1].K, e.K)
		}
		seen[e.K.Row] = true
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if row := fmt.Sprintf("w%02d-r%05d", w, i); !seen[row] {
				t.Fatalf("row %s lost under concurrency", row)
			}
		}
	}
	if stats.Get(telemetry.MemtableFreezes) == 0 {
		t.Fatal("expected memtable freezes under a 64-entry limit")
	}
}

// TestMemtableByteTriggerFreezes pins the byte-based flush trigger: a
// tablet whose entry-count limit would never trip must still freeze
// once the memtable's approximate byte footprint crosses SetFlushBytes.
func TestMemtableByteTriggerFreezes(t *testing.T) {
	tab := New("", "", 1<<20, 1) // count limit effectively off
	stats := &telemetry.StatSet{}
	tab.SetStats(stats)
	tab.SetFlushBytes(4 << 10)
	wide := make([]byte, 512)
	for i := 0; i < 64; i++ {
		e := skv.Entry{K: skv.Key{Row: fmt.Sprintf("r%04d", i), ColQ: "q", Ts: 1}, V: wide}
		if err := tab.Write([]skv.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.WaitFlush(); err != nil {
		t.Fatal(err)
	}
	if stats.Get(telemetry.MemtableFreezes) == 0 {
		t.Fatal("byte trigger never froze the memtable")
	}
	if got := scanAll(t, tab); len(got) != 64 {
		t.Fatalf("scan = %d entries, want 64", len(got))
	}
}

// TestMemtableScanDoesNotCopy pins the point of the segment list:
// opening and draining a merged scan of the memtable reads its
// segments in place instead of copying the table, so its allocation
// count does not grow with the entries resident. A memtable that copied
// its entries under a lock on every snapshot would fail at once.
func TestMemtableScanDoesNotCopy(t *testing.T) {
	var got []float64
	for _, n := range []int{2000, 20000} {
		m := newMemtable()
		batches := make([][]skv.Entry, 4)
		for i := 0; i < n; i++ {
			batches[i%4] = append(batches[i%4], ent(fmt.Sprintf("r%06d", i), "q", 1, float64(i)))
		}
		for _, b := range batches {
			insertBatch(m, b)
		}
		got = append(got, testing.AllocsPerRun(10, func() {
			it := iterator.NewDedupMergeIter(m.sources(nil)...)
			if err := it.Seek(skv.FullRange()); err != nil {
				t.Fatal(err)
			}
			count := 0
			for it.HasTop() {
				count++
				if err := it.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if count != n {
				t.Fatalf("iterated %d entries, want %d", count, n)
			}
		}))
	}
	if got[0] != got[1] {
		t.Fatalf("memtable scans of 2000 and 20000 entries allocated %v times; the scan must not copy the table", got)
	}
}

// TestMemtableWatermarkHidesLaterWrites pins the snapshot contract:
// sources taken before a batch is installed never see it, even when
// the install merges at the cap; fresh sources do.
func TestMemtableWatermarkHidesLaterWrites(t *testing.T) {
	m := newMemtable()
	insertOne(m, ent("a", "q", 1, 1))
	insertOne(m, ent("c", "q", 1, 3))
	early := m.sources(nil)
	insertOne(m, ent("b", "q", 1, 2)) // after the cut: must not appear
	for i := 0; i < maxSegments; i++ {
		insertOne(m, ent(fmt.Sprintf("d%02d", i), "q", 1, 4)) // merges at the cap
	}
	it := iterator.NewDedupMergeIter(early...)
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for it.HasTop() {
		rows = append(rows, it.Top().K.Row)
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if len(rows) != 2 || rows[0] != "a" || rows[1] != "c" {
		t.Fatalf("early scan = %v, want [a c]", rows)
	}
	// A fresh snapshot sees the later writes.
	if got := m.snapshot(); len(got) != 3+maxSegments {
		t.Fatalf("fresh snapshot = %d entries, want %d", len(got), 3+maxSegments)
	}
}
