package tablet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/store"
	"graphulo/internal/tablet"
)

// TestTabletEmptyResultLeavesNoRun pins the typed-nil trap on both
// backings: a flush, merge or major compaction whose stack drops every
// entry, and a MinorCompact with nothing buffered, must leave no nil or
// zero-size run behind (in RunSizes, or as a file in rf/), and the
// survivors must scan the same before and after a reopen.
func TestTabletEmptyResultLeavesNoRun(t *testing.T) {
	dropAll := func(src iterator.SKVI) (iterator.SKVI, error) {
		return iterator.NewColumnFilterIter(src, "no-such-family"), nil
	}
	// Every case starts from three runs of three rows each: r0-r2,
	// r3-r5, r6-r8.
	cases := []struct {
		name      string
		op        func(*tablet.Tablet) error
		runs      []int
		survivors int // rows r0..r<survivors-1>, wherever they live
	}{
		{"empty MinorCompact", func(tab *tablet.Tablet) error { return tab.MinorCompact(nil) }, []int{3, 3, 3}, 9},
		{"MinorCompact dropping all", func(tab *tablet.Tablet) error {
			if err := tab.Write(rows(9, 12)); err != nil {
				return err
			}
			return tab.MinorCompact(dropAll)
		}, []int{3, 3, 3}, 9},
		{"run-bound merge dropping all", func(tab *tablet.Tablet) error {
			// The first run is three times the others, so the tier is the
			// last two.
			if err := tab.MajorCompact(nil); err != nil {
				return err
			}
			for i := 9; i < 15; i += 3 {
				if err := tab.Write(rows(i, i+3)); err != nil {
					return err
				}
				if err := tab.MinorCompact(nil); err != nil {
					return err
				}
			}
			tab.SetRunBound(tablet.NewRunBound(2, func() func(iterator.SKVI) (iterator.SKVI, error) { return dropAll }))
			return tab.MinorCompact(nil)
		}, []int{9}, 9},
		{"MajorCompact dropping all", func(tab *tablet.Tablet) error { return tab.MajorCompact(dropAll) }, []int{}, 0},
	}
	for _, tc := range cases {
		for _, durable := range []bool{false, true} {
			name := tc.name + "/memory"
			if durable {
				name = tc.name + "/durable"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var d *store.Dir
				tab := tablet.New("", "", 0, 1)
				if durable {
					d, tab = openDurableTablet(t, dir, 0)
				}
				for i := 0; i < 9; i += 3 {
					if err := tab.Write(rows(i, i+3)); err != nil {
						t.Fatal(err)
					}
					if err := tab.MinorCompact(nil); err != nil {
						t.Fatal(err)
					}
				}
				if err := tc.op(tab); err != nil {
					t.Fatal(err)
				}
				checkRuns(t, tab, tc.runs, tc.survivors)
				if !durable {
					return
				}
				if got := rfileCount(t, dir); got != len(tc.runs) {
					t.Fatalf("rf/ holds %d files, want %d", got, len(tc.runs))
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				d, err := store.Open(dir, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				ts, runs, replay, _, err := d.OpenTablet("T", d.Tables()[0].Tablets[0])
				if err != nil {
					t.Fatal(err)
				}
				checkRuns(t, tablet.NewDurable("", "", 0, ts, runs, replay), tc.runs, tc.survivors)
				if got := rfileCount(t, dir); got != len(tc.runs) {
					t.Fatalf("after reopen rf/ holds %d files, want %d", got, len(tc.runs))
				}
			})
		}
	}
	// A store-level WriteRun with no entries answers a nil Run, not a
	// Run interface holding a nil *rfile.Reader.
	d, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	backings, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	if run, err := backings[0].WriteRun(nil); err != nil || run != nil {
		t.Fatalf("WriteRun(nil) = %v, %v; want a nil Run", run, err)
	}
}

// rows returns one entry per row r<lo>..r<hi-1>.
func rows(lo, hi int) []skv.Entry {
	var out []skv.Entry
	for i := lo; i < hi; i++ {
		out = append(out, skv.Entry{K: skv.Key{Row: fmt.Sprintf("r%02d", i), ColQ: "q", Ts: int64(i + 1)}, V: skv.EncodeFloat(float64(i))})
	}
	return out
}

// checkRuns asserts the tablet's run sizes and that a scan returns
// exactly rows r0..r<survivors-1>.
func checkRuns(t *testing.T, tab *tablet.Tablet, wantRuns []int, survivors int) {
	t.Helper()
	if got := tab.RunSizes(); fmt.Sprint(got) != fmt.Sprint(wantRuns) {
		t.Fatalf("run sizes = %v, want %v", got, wantRuns)
	}
	it := tab.Snapshot()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	want := rows(0, survivors)
	if len(got) != len(want) {
		t.Fatalf("scan = %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].K != want[i].K {
			t.Fatalf("entry %d = %v, want %v", i, got[i].K, want[i].K)
		}
	}
}

// rfileCount counts the files in a data directory's rf/.
func rfileCount(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "rf"))
	if err != nil {
		t.Fatal(err)
	}
	return len(des)
}
