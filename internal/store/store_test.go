package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/tablet"
)

func ent(row string, ts int64, v string) skv.Entry {
	return skv.Entry{K: skv.Key{Row: row, ColQ: "q", Ts: ts}, V: skv.Value(v)}
}

func scanTablet(t *testing.T, tab *tablet.Tablet) []skv.Entry {
	t.Helper()
	it := tab.Snapshot()
	if err := it.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	out, err := iterator.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestManifestRoundTrip(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	iters := map[string][]iterator.Setting{
		"scan": {{Name: "sum", Priority: 10, Opts: map[string]string{"k": "v"}}},
	}
	if _, err := d.CreateTable("T", []string{"m"}, iters,
		[][2]string{{"", "m"}, {"m", ""}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tables := d2.Tables()
	if len(tables) != 1 || tables[0].Name != "T" {
		t.Fatalf("tables = %+v", tables)
	}
	ti := tables[0]
	if len(ti.Splits) != 1 || ti.Splits[0] != "m" {
		t.Fatalf("splits = %v", ti.Splits)
	}
	if len(ti.Tablets) != 2 || ti.Tablets[0].End != "m" || ti.Tablets[1].Start != "m" {
		t.Fatalf("tablets = %+v", ti.Tablets)
	}
	got := ti.Iters["scan"]
	if len(got) != 1 || got[0].Name != "sum" || got[0].Opts["k"] != "v" {
		t.Fatalf("iters = %+v", ti.Iters)
	}
}

// TestTabletFlushCompactRecover drives a real durable tablet through
// write → flush → more writes → reopen, checking every stage survives.
func TestTabletFlushCompactRecover(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	tab := tablet.NewDurable("", "", 0, stores[0], nil, nil)
	var want []skv.Entry
	for i := 0; i < 60; i++ {
		e := ent(fmt.Sprintf("r%03d", i), int64(i+1), fmt.Sprintf("v%d", i))
		want = append(want, e)
		if err := tab.Write([]skv.Entry{e}); err != nil {
			t.Fatal(err)
		}
		switch i {
		case 19:
			if err := tab.MinorCompact(nil); err != nil {
				t.Fatal(err)
			}
		case 39:
			if err := tab.MajorCompact(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Unclean shutdown: no Close. Entries 40..59 live only in the WAL.
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	tables := d2.Tables()
	ts, runs, replay, maxTs, err := d2.OpenTablet("T", tables[0].Tablets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("after majc expected exactly 1 rfile run, got %d", len(runs))
	}
	if len(replay) != 20 {
		t.Fatalf("WAL replay = %d entries, want 20", len(replay))
	}
	if maxTs != 60 {
		t.Fatalf("maxTs = %d, want 60", maxTs)
	}
	tab2 := tablet.NewDurable("", "", 0, ts, runs, replay)
	got := scanTablet(t, tab2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSplitSwapsStateAtomically(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	tab := tablet.NewDurable("", "", 0, stores[0], nil, nil)
	for i := 0; i < 40; i++ {
		if err := tab.Write([]skv.Entry{ent(fmt.Sprintf("r%03d", i), int64(i+1), "v")}); err != nil {
			t.Fatal(err)
		}
	}
	left, right, err := tab.SplitAt("r020")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(scanTablet(t, left)); n != 20 {
		t.Fatalf("left has %d entries", n)
	}
	if n := len(scanTablet(t, right)); n != 20 {
		t.Fatalf("right has %d entries", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ti := d2.Tables()[0]
	if len(ti.Tablets) != 2 || ti.Tablets[0].End != "r020" || ti.Tablets[1].Start != "r020" {
		t.Fatalf("persisted tablets = %+v", ti.Tablets)
	}
	if len(ti.Splits) != 1 || ti.Splits[0] != "r020" {
		t.Fatalf("persisted splits = %v", ti.Splits)
	}
	total := 0
	for _, tbi := range ti.Tablets {
		ts, runs, replay, _, err := d2.OpenTablet("T", tbi)
		if err != nil {
			t.Fatal(err)
		}
		tab := tablet.NewDurable(tbi.Start, tbi.End, 0, ts, runs, replay)
		total += len(scanTablet(t, tab))
	}
	if total != 40 {
		t.Fatalf("recovered %d entries across halves, want 40", total)
	}
}

func TestGCRemovesOrphanFiles(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	tab := tablet.NewDurable("", "", 0, stores[0], nil, nil)
	tab.Write([]skv.Entry{ent("a", 1, "v")})
	tab.MinorCompact(nil)
	d.Close()

	// Simulate a crash between rfile creation and its manifest commit,
	// and a WAL left behind by a dropped tablet.
	orphanRF := filepath.Join(path, rfDirName, "r999999.rf")
	orphanWAL := filepath.Join(path, walDirName, "t999999-000000000001.wal")
	for _, f := range []string{orphanRF, orphanWAL} {
		if err := os.WriteFile(f, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, f := range []string{orphanRF, orphanWAL} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived gc", f)
		}
	}
	// The referenced rfile must still be there.
	ti := d2.Tables()[0]
	_, runs, _, _, err := d2.OpenTablet("T", ti.Tablets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Count() != 1 {
		t.Fatalf("live rfile damaged by gc: %d runs", len(runs))
	}
}

func TestDropTableDeletesFiles(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stores, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	tab := tablet.NewDurable("", "", 0, stores[0], nil, nil)
	tab.Write([]skv.Entry{ent("a", 1, "v")})
	tab.MinorCompact(nil)
	if err := d.DropTable("T"); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{rfDirName, walDirName} {
		des, err := os.ReadDir(filepath.Join(path, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(des) != 0 {
			t.Fatalf("%s not empty after drop: %v", sub, des)
		}
	}
	if len(d.Tables()) != 0 {
		t.Fatal("table still in manifest after drop")
	}
}

// TestMergeRunsDurable drives a size-tiered partial compaction on a
// durable tablet: the merged group's rfiles are swapped for one file in
// the manifest, untouched runs keep their files, and recovery sees the
// same data.
func TestMergeRunsDurable(t *testing.T) {
	path := t.TempDir()
	d, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stores, err := d.CreateTable("T", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	tab := tablet.NewDurable("", "", 0, stores[0], nil, nil)
	var want []skv.Entry
	for i := 0; i < 40; i++ {
		e := ent(fmt.Sprintf("r%03d", i), int64(i+1), fmt.Sprintf("v%d", i))
		want = append(want, e)
		if err := tab.Write([]skv.Entry{e}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 { // 4 runs of 10
			if err := tab.MinorCompact(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tab.MergeRuns(1, 3, nil); err != nil {
		t.Fatal(err)
	}
	sizes := tab.RunSizes()
	wantSizes := []int{10, 20, 10}
	if len(sizes) != len(wantSizes) {
		t.Fatalf("post-merge run sizes = %v, want %v", sizes, wantSizes)
	}
	for i := range wantSizes {
		if sizes[i] != wantSizes[i] {
			t.Fatalf("post-merge run sizes = %v, want %v", sizes, wantSizes)
		}
	}
	got := scanTablet(t, tab)
	if len(got) != len(want) {
		t.Fatalf("post-merge scan = %d entries, want %d", len(got), len(want))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Exactly 3 live rfiles on disk, and recovery reproduces the data.
	des, err := os.ReadDir(filepath.Join(path, rfDirName))
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 3 {
		t.Fatalf("rf/ holds %d files after merge, want 3", len(des))
	}
	d2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	ti := d2.Tables()[0]
	ts, runs, replay, _, err := d2.OpenTablet("T", ti.Tablets[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("recovered %d runs, want 3", len(runs))
	}
	tab2 := tablet.NewDurable("", "", 0, ts, runs, replay)
	got = scanTablet(t, tab2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
			t.Fatalf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
}
