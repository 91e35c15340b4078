package accumulo

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// openDurable opens a durable cluster over dir, failing the test on
// error.
func openDurable(t *testing.T, dir string) *MiniCluster {
	t.Helper()
	mc, err := OpenMiniCluster(Config{TabletServers: 2, MemLimit: 32, WireBatch: 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func scanTable(t *testing.T, conn *Connector, table string) []skv.Entry {
	t.Helper()
	sc, err := conn.CreateScanner(table)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func sameEntries(a, b []skv.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || string(a[i].V) != string(b[i].V) {
			return false
		}
	}
	return true
}

// TestDurableRecoveryAfterUncleanShutdown is the core crash-recovery
// contract: write (some flushed, some only WAL-logged), skip Close,
// reopen from the same DataDir, and require byte-identical scans —
// including through the table's sum-combiner iterator stack.
func TestDurableRecoveryAfterUncleanShutdown(t *testing.T) {
	dir := t.TempDir()
	mc := openDurable(t, dir)
	conn := mc.Connector()
	ops := conn.TableOperations()
	if err := ops.CreateWithSplits("T", []string{"m"}); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator("T", "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("T", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("T", BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Each cell written twice so the combiner has real work; half the
	// rows land before a flush (rfile), half stay WAL-only.
	for i := 0; i < 50; i++ {
		row := fmt.Sprintf("r%03d", i)
		if err := w.PutFloat(row, "", "x", float64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.PutFloat(row, "", "x", 1); err != nil {
			t.Fatal(err)
		}
		if i == 24 {
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := ops.Flush("T"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := scanTable(t, conn, "T")
	if len(want) != 50 {
		t.Fatalf("pre-restart scan = %d entries, want 50", len(want))
	}
	// Unclean shutdown: the cluster is simply dropped, no Close. A
	// crashed process does no more work, but this one's background
	// flushes and their merges would keep writing rfiles, the manifest
	// and WAL reclaims into the directory the reopen is recovering from;
	// let them settle first (WaitFlush covers the merge step). The
	// active memtable stays unflushed, so recovery still replays the WAL.
	for _, ref := range mc.tables["T"].tablets {
		if err := ref.tab.WaitFlush(); err != nil {
			t.Fatal(err)
		}
	}

	mc2 := openDurable(t, dir)
	defer mc2.Close()
	conn2 := mc2.Connector()
	got := scanTable(t, conn2, "T")
	if !sameEntries(want, got) {
		t.Fatalf("post-recovery scan differs:\nwant %v\ngot  %v", want, got)
	}
	// Combined values must have survived: r007 = 7 + 1.
	for _, e := range got {
		if e.K.Row == "r007" {
			if v, _ := skv.DecodeFloat(e.V); v != 8 {
				t.Fatalf("combiner result lost in recovery: r007 = %v", v)
			}
		}
	}
	// Structure must have survived too.
	splits, err := conn2.TableOperations().Splits("T")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 || splits[0] != "m" {
		t.Fatalf("splits not recovered: %v", splits)
	}
	meta, err := mc2.getTable("T")
	if err != nil {
		t.Fatal(err)
	}
	stack := meta.scopeStack(ScanScope)
	found := false
	for _, s := range stack {
		if s.Name == "sum" {
			found = true
		}
		if s.Name == "versioning" {
			t.Fatal("removed versioning iterator resurrected by recovery")
		}
	}
	if !found {
		t.Fatalf("sum iterator not recovered: %+v", stack)
	}
}

// TestDurableRecoveryReplaysInstalledBatches: a memtable that held
// installed batches recovers from the WAL after an unclean shutdown —
// one sorted record, which the replay installs again, and several
// sorted records plus a skip-list write over one of their cells, which
// the replay links — with the sum combiner's result intact.
func TestDurableRecoveryReplaysInstalledBatches(t *testing.T) {
	for _, batches := range []int{1, 3} {
		t.Run(fmt.Sprintf("batches=%d", batches), func(t *testing.T) {
			dir := t.TempDir()
			// The default memtable limit: nothing freezes, so everything
			// written is in the WAL and the memtable only.
			cfg := Config{TabletServers: 1, DataDir: dir, NoSync: true}
			mc, err := OpenMiniCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			conn := mc.Connector()
			ops := conn.TableOperations()
			if err := ops.Create("T"); err != nil {
				t.Fatal(err)
			}
			if err := ops.RemoveIterator("T", "versioning"); err != nil {
				t.Fatal(err)
			}
			if err := ops.AttachIterator("T", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
				t.Fatal(err)
			}
			w, err := conn.CreateBatchWriter("T", BatchWriterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			// 300 cells a batch: above the memtable's install floor of 256.
			for b := 0; b < batches; b++ {
				for i := 0; i < 300; i++ {
					if err := w.PutFloat("r", "", fmt.Sprintf("w%03d", i), float64(b+1)); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if mc.Telemetry().Stats.Get(telemetry.MemtableInstalls) != int64(batches) {
				t.Fatalf("%d batches installed, want %d", mc.Telemetry().Stats.Get(telemetry.MemtableInstalls), batches)
			}
			if batches > 1 {
				if err := w.PutFloat("r", "", "w007", 100); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want := scanTable(t, conn, "T")
			total := float64(batches * (batches + 1) / 2)
			if len(want) != 300 {
				t.Fatalf("pre-restart scan = %d entries, want 300", len(want))
			}
			for _, e := range want {
				v, _ := skv.DecodeFloat(e.V)
				if e.K.ColQ == "w007" && batches > 1 {
					v -= 100
				}
				if v != total {
					t.Fatalf("pre-restart %s = %v, want %v", e.K.ColQ, v, total)
				}
			}
			// Unclean shutdown, as in TestDurableRecoveryAfterUncleanShutdown.
			for _, ref := range mc.tables["T"].tablets {
				if err := ref.tab.WaitFlush(); err != nil {
					t.Fatal(err)
				}
			}

			mc2, err := OpenMiniCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mc2.Close()
			if got := scanTable(t, mc2.Connector(), "T"); !sameEntries(want, got) {
				t.Fatalf("post-recovery scan differs:\nwant %v\ngot  %v", want, got)
			}
		})
	}
}

// TestDurableClockMonotonicAcrossRestart: a write after recovery must
// get a newer timestamp than every pre-restart write, or the
// versioning iterator would resurrect stale values.
func TestDurableClockMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mc := openDurable(t, dir)
	conn := mc.Connector()
	if err := conn.TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	w, _ := conn.CreateBatchWriter("T", BatchWriterConfig{})
	for i := 0; i < 10; i++ {
		if err := w.Put("k", "", "q", skv.Value("old")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// No Close: clock state must be recoverable from the WAL alone.

	mc2 := openDurable(t, dir)
	defer mc2.Close()
	conn2 := mc2.Connector()
	w2, _ := conn2.CreateBatchWriter("T", BatchWriterConfig{})
	if err := w2.Put("k", "", "q", skv.Value("new")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	got := scanTable(t, conn2, "T")
	if len(got) != 1 || string(got[0].V) != "new" {
		t.Fatalf("stale value won after restart: %v", got)
	}
}

// TestDurableTornWALTail truncates the tail of a WAL segment —
// simulating a crash mid-append — and verifies recovery keeps exactly
// the valid prefix and the cluster stays writable.
func TestDurableTornWALTail(t *testing.T) {
	dir := t.TempDir()
	mc := openDurable(t, dir)
	conn := mc.Connector()
	if err := conn.TableOperations().Create("T"); err != nil {
		t.Fatal(err)
	}
	w, _ := conn.CreateBatchWriter("T", BatchWriterConfig{})
	// One entry per flush → one WAL record per batch, all to the single
	// tablet.
	for i := 0; i < 10; i++ {
		if err := w.Put(fmt.Sprintf("r%02d", i), "", "q", skv.Value("v")); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the last record in every WAL segment file.
	walDir := filepath.Join(dir, "wal")
	des, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, de := range des {
		if !strings.HasSuffix(de.Name(), ".wal") {
			continue
		}
		p := filepath.Join(walDir, de.Name())
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			continue
		}
		if err := os.Truncate(p, st.Size()-2); err != nil {
			t.Fatal(err)
		}
		torn++
	}
	if torn == 0 {
		t.Fatal("no WAL segment to tear")
	}

	mc2 := openDurable(t, dir)
	defer mc2.Close()
	conn2 := mc2.Connector()
	got := scanTable(t, conn2, "T")
	if len(got) != 9 {
		t.Fatalf("torn-tail recovery kept %d entries, want 9 (all but the torn record)", len(got))
	}
	for i, e := range got {
		if e.K.Row != fmt.Sprintf("r%02d", i) {
			t.Fatalf("entry %d row = %q", i, e.K.Row)
		}
	}
	// The cluster stays writable after recovery.
	w2, _ := conn2.CreateBatchWriter("T", BatchWriterConfig{})
	if err := w2.Put("r09", "", "q", skv.Value("rewritten")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := scanTable(t, conn2, "T"); len(got) != 10 {
		t.Fatalf("post-recovery write lost: %d entries", len(got))
	}
}

// TestDurableSplitsAndCompactionSurviveRestart mixes structural
// operations with data and checks everything after a clean Close.
func TestDurableSplitsAndCompactionSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	mc := openDurable(t, dir)
	conn := mc.Connector()
	ops := conn.TableOperations()
	if err := ops.Create("T"); err != nil {
		t.Fatal(err)
	}
	w, _ := conn.CreateBatchWriter("T", BatchWriterConfig{})
	for i := 0; i < 100; i++ {
		if err := w.Put(fmt.Sprintf("r%03d", i), "", "q", skv.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if err := ops.AddSplits("T", []string{"r030", "r060"}); err != nil {
		t.Fatal(err)
	}
	if err := ops.Compact("T"); err != nil {
		t.Fatal(err)
	}
	want := scanTable(t, conn, "T")
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}

	mc2 := openDurable(t, dir)
	defer mc2.Close()
	conn2 := mc2.Connector()
	splits, err := conn2.TableOperations().Splits("T")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 || splits[0] != "r030" || splits[1] != "r060" {
		t.Fatalf("splits not recovered: %v", splits)
	}
	got := scanTable(t, conn2, "T")
	if !sameEntries(want, got) {
		t.Fatalf("post-restart scan differs: %d vs %d entries", len(want), len(got))
	}
	n, err := conn2.TableOperations().EntryEstimate("T")
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("entry estimate after recovery = %d, want 100", n)
	}
}

// TestDurableDeleteRemovesState: a deleted table must stay deleted
// across restarts and leave no files behind.
func TestDurableDeleteRemovesState(t *testing.T) {
	dir := t.TempDir()
	mc := openDurable(t, dir)
	conn := mc.Connector()
	ops := conn.TableOperations()
	if err := ops.Create("T"); err != nil {
		t.Fatal(err)
	}
	w, _ := conn.CreateBatchWriter("T", BatchWriterConfig{})
	w.Put("a", "", "q", skv.Value("v"))
	w.Close()
	if err := ops.Flush("T"); err != nil {
		t.Fatal(err)
	}
	if err := ops.Delete("T"); err != nil {
		t.Fatal(err)
	}
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	mc2 := openDurable(t, dir)
	defer mc2.Close()
	if mc2.Connector().TableOperations().Exists("T") {
		t.Fatal("deleted table resurrected")
	}
	for _, sub := range []string{"rf", "wal"} {
		des, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(des) != 0 {
			t.Fatalf("%s not empty after delete: %d files", sub, len(des))
		}
	}
}
