package accumulo

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// Model-based test: drive the cluster with random operation sequences
// (puts, sorted batches, flushes, compactions, splits, range scans) and
// compare every scan against a flat in-memory reference model with
// summing semantics.
// This is the strongest correctness statement about the storage stack:
// no sequence of structural events (memtable spills, run merges, tablet
// splits) may change scan results. Both arms bound tablets at 2–4 runs,
// so the flushes' merges interleave with compactions and splits, and
// every flush op checks the bound holds on every tablet once it
// returns. The sorted-batch op writes one row's cells, distinct and in
// key order, as one batch above the memtable's install floor, twice:
// the first write fills the memtable past its limit, so the second
// lands in a fresh one and is installed whole, which the op checks on
// the install counter. The durable arm runs the same sequences on a
// data directory and adds two reopen ops checked against the same
// model: a clean close, which flushes every memtable first, and an
// unclean shutdown, whose reopen replays the WAL.
func TestQuickClusterMatchesReferenceModel(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool { return clusterMatchesModel(t, seed, durable) }
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// clusterMatchesModel runs one random op sequence for
// TestQuickClusterMatchesReferenceModel, reporting whether every scan
// matched the model.
func clusterMatchesModel(t *testing.T, seed int64, durable bool) bool {
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{TabletServers: 1 + rng.Intn(3), MemLimit: 8 + rng.Intn(32), WireBatch: 1 + rng.Intn(64),
		MaxRunsPerTablet: 2 + rng.Intn(3)}
	if durable {
		cfg.DataDir, cfg.NoSync = t.TempDir(), true
	}
	mc, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Log(err)
		return false
	}
	defer func() {
		if mc != nil { // nil after a failed reopen
			mc.Close()
		}
	}()
	conn := mc.Connector()
	ops := conn.TableOperations()
	if err := ops.Create("M"); err != nil {
		return false
	}
	// Summing semantics to make the model deterministic under versions.
	if err := ops.RemoveIterator("M", "versioning"); err != nil {
		return false
	}
	if err := ops.AttachIterator("M", iterator.Setting{Name: "sum", Priority: 10}); err != nil {
		return false
	}
	w, err := conn.CreateBatchWriter("M", BatchWriterConfig{})
	if err != nil {
		return false
	}
	model := map[[2]string]float64{}

	rows := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	cols := []string{"x", "y", "z"}
	checkScan := func(lo, hi string) bool {
		s, err := conn.CreateScanner("M")
		if err != nil {
			return false
		}
		s.SetRange(skv.RowRange(lo, hi))
		entries, err := s.Entries()
		if err != nil {
			return false
		}
		got := map[[2]string]float64{}
		var prev *skv.Key
		for _, e := range entries {
			if prev != nil && skv.Compare(*prev, e.K) > 0 {
				return false // unsorted
			}
			k := e.K
			prev = &k
			v, ok := skv.DecodeFloat(e.V)
			if !ok {
				return false
			}
			got[[2]string{e.K.Row, e.K.ColQ}] += v
		}
		for k, v := range model {
			inRange := (lo == "" || k[0] >= lo) && (hi == "" || k[0] < hi)
			if inRange {
				if got[k] != v {
					return false
				}
				delete(got, k)
			}
		}
		return len(got) == 0
	}

	nOps := 13
	if durable {
		nOps = 15
	}
	for op := 0; op < 120; op++ {
		switch rng.Intn(nOps) {
		case 0, 1, 2, 3, 4, 5: // put
			r := rows[rng.Intn(len(rows))]
			c := cols[rng.Intn(len(cols))]
			v := float64(1 + rng.Intn(9))
			if err := w.PutFloat(r, "", c, v); err != nil {
				return false
			}
			if err := w.Flush(); err != nil {
				return false
			}
			model[[2]string{r, c}] += v
		case 6:
			if err := ops.Flush("M"); err != nil {
				return false
			}
			runs, err := ops.TabletRuns("M")
			if err != nil {
				return false
			}
			for _, n := range runs {
				if n > cfg.MaxRunsPerTablet {
					t.Logf("seed %d: tablet runs %v after Flush, bound %d", seed, runs, cfg.MaxRunsPerTablet)
					return false
				}
			}
		case 7:
			if err := ops.Compact("M"); err != nil {
				return false
			}
		case 8:
			split := rows[rng.Intn(len(rows))]
			if err := ops.AddSplits("M", []string{split}); err != nil {
				return false
			}
		case 12: // one sorted batch of distinct cells, written twice
			r := rows[rng.Intn(len(rows))]
			v := float64(1 + rng.Intn(9))
			merges := mc.Telemetry().Stats.Get(telemetry.MemtableMerges)
			for range 2 {
				for i := 0; i < 300; i++ {
					c := fmt.Sprintf("w%03d", i)
					if err := w.PutFloat(r, "", c, v); err != nil {
						return false
					}
					model[[2]string{r, c}] += v
				}
				if err := w.Flush(); err != nil {
					return false
				}
			}
			// Each wire batch installs as one segment, and MemLimit (at
			// most 39 entries) freezes a memtable long before the
			// 64-segment cap.
			if n := mc.Telemetry().Stats.Get(telemetry.MemtableMerges) - merges; n != 0 {
				t.Logf("seed %d: %d memtable segments merged, want 0", seed, n)
				return false
			}
		case 13: // close and reopen the data directory (durable only)
			err := mc.Close()
			mc = nil
			if err != nil {
				t.Log(err)
				return false
			}
			if mc, err = OpenMiniCluster(cfg); err != nil {
				t.Log(err)
				return false
			}
			conn = mc.Connector()
			ops = conn.TableOperations()
			if w, err = conn.CreateBatchWriter("M", BatchWriterConfig{}); err != nil {
				return false
			}
			if !checkScan("", "") {
				return false
			}
		case 14: // unclean shutdown and reopen (durable only)
			// The cluster is dropped without Close, as in
			// TestDurableRecoveryAfterUncleanShutdown: background flushes
			// settle first, the active memtables stay unflushed, and the
			// reopen replays their WAL into a memtable read beside the
			// runs. Every write op has flushed its batch writer, so all
			// of the model's writes were acknowledged.
			for _, ref := range mc.tables["M"].tablets {
				if err := ref.tab.WaitFlush(); err != nil {
					t.Log(err)
					return false
				}
			}
			abandon(mc)
			if mc, err = OpenMiniCluster(cfg); err != nil {
				t.Log(err)
				return false
			}
			conn = mc.Connector()
			ops = conn.TableOperations()
			if w, err = conn.CreateBatchWriter("M", BatchWriterConfig{}); err != nil {
				return false
			}
			if !checkScan("", "") {
				return false
			}
		default: // range scan check
			lo, hi := "", ""
			if rng.Intn(2) == 0 {
				lo = rows[rng.Intn(len(rows))]
			}
			if rng.Intn(2) == 0 {
				hi = rows[rng.Intn(len(rows))]
			}
			if hi != "" && lo > hi {
				lo, hi = hi, lo
			}
			if !checkScan(lo, hi) {
				return false
			}
		}
	}
	return checkScan("", "")
}

// abandon drops a durable cluster as a process exit would: a run-bound
// merge in flight finishes and no later one starts, the servers and
// transport stop, and the WAL segments and rfiles are closed as they
// stand — nothing is flushed, synced or written to the manifest — so
// a test that drops many clusters does not run out of descriptors.
func abandon(mc *MiniCluster) {
	mc.mu.RLock()
	metas := maps.Clone(mc.tables)
	mc.mu.RUnlock()
	for _, meta := range metas {
		meta.bound.Close()
	}
	mc.closeTransport()
	mc.dir.Abandon()
}

// A multi-range scan over any partition of the key space must return
// exactly the full scan, in order: SetRanges coalesces the ranges (given
// here in shuffled order) and each tablet serves its clips in one pass.
func TestQuickScannerRangesCoverPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mc := NewMiniCluster(Config{TabletServers: 2, MemLimit: 16})
		conn := mc.Connector()
		if err := conn.TableOperations().CreateWithSplits("P", []string{"d", "m"}); err != nil {
			return false
		}
		w, _ := conn.CreateBatchWriter("P", BatchWriterConfig{})
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			w.PutFloat(fmt.Sprintf("%c%03d", 'a'+rng.Intn(20), i), "", "q", float64(i))
		}
		w.Close()
		s, _ := conn.CreateScanner("P")
		all, err := s.Entries()
		if err != nil {
			return false
		}
		// Partition at up to four random rows (repeats give empty parts).
		cuts := []string{""}
		for i := rng.Intn(4); i >= 0; i-- {
			cuts = append(cuts, fmt.Sprintf("%c", 'a'+rng.Intn(20)))
		}
		sort.Strings(cuts)
		cuts = append(cuts, "")
		var ranges []skv.Range
		for i := 0; i+1 < len(cuts); i++ {
			ranges = append(ranges, skv.RowRange(cuts[i], cuts[i+1]))
		}
		rng.Shuffle(len(ranges), func(i, j int) { ranges[i], ranges[j] = ranges[j], ranges[i] })
		ms, _ := conn.CreateScanner("P")
		ms.SetRanges(ranges)
		parts, err := ms.Entries()
		if err != nil || len(parts) != len(all) {
			return false
		}
		for i := range all {
			if skv.Compare(all[i].K, parts[i].K) != 0 || string(all[i].V) != string(parts[i].V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
