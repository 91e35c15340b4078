// Durable multi-writer stress lives in an external test package so it
// can wire a real store.Dir backing (store imports tablet for the
// Backing interfaces, so an internal test file could not import it).
package tablet_test

import (
	"fmt"
	"sync"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/store"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
)

// openDurableTablet creates a one-tablet durable table under dir and
// returns the tablet wired to its store backing.
func openDurableTablet(t *testing.T, dir string, memLimit int) (*store.Dir, *tablet.Tablet) {
	t.Helper()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	backings, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	return d, tablet.NewDurable("", "", memLimit, backings[0], nil, nil)
}

// TestMultiWriterStressDurable drives 8 concurrent writers through the
// full durable write path — WAL group commit, lock-free memtable
// inserts, freeze-and-swap background flushes to rfiles — on one
// tablet, then checks the merged scan holds every acknowledged write
// exactly once. Run under -race this is the end-to-end pin for the
// concurrent ingest path.
func TestMultiWriterStressDurable(t *testing.T) {
	const writers, perWriter = 8, 250
	dir, tab := openDurableTablet(t, t.TempDir(), 64)
	defer dir.Close()
	stats := &telemetry.StatSet{}
	tab.SetStats(stats)

	var ts int64
	var tsMu sync.Mutex
	stamp := func() int64 {
		tsMu.Lock()
		defer tsMu.Unlock()
		ts++
		return ts
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := skv.Entry{
					K: skv.Key{Row: fmt.Sprintf("w%02d-r%05d", w, i), ColQ: "q", Ts: stamp()},
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

	it := tab.Snapshot()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*perWriter {
		t.Fatalf("scan = %d entries, want %d", len(got), writers*perWriter)
	}
	for i := 1; i < len(got); i++ {
		if skv.Compare(got[i-1].K, got[i].K) >= 0 {
			t.Fatalf("scan unsorted or duplicated at %d: %v then %v", i, got[i-1].K, got[i].K)
		}
	}
	if stats.Get(telemetry.MemtableFreezes) == 0 {
		t.Fatal("expected background freezes with a 64-entry memtable")
	}
	if tab.RunCount() == 0 {
		t.Fatal("background flushes produced no on-disk runs")
	}
}
