package tablet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"graphulo/internal/skv"
)

// insertOne inserts a single entry as a one-entry batch.
func insertOne(m *memtable, e skv.Entry) { m.insertBatch([]skv.Entry{e}) }

// checkLevels asserts the skip list's structural invariants on every
// level, not only the bottom one a flush reads: each level is strictly
// sorted, and every node linked on level i > 0 is also linked on
// level 0. A search that splices a node after the wrong predecessor on
// an express level leaves level 0 intact, so only this walk sees it.
func checkLevels(t *testing.T, m *memtable) {
	t.Helper()
	linked := map[*memNode]bool{}
	for i := 0; i < maxLevel; i++ {
		var prev *memNode
		for x := m.head.next[i].Load(); x != nil; x = x.next[i].Load() {
			if prev != nil && skv.Compare(prev.k, x.k) >= 0 {
				t.Fatalf("level %d order violated: %v after %v", i, x.k, prev.k)
			}
			if i == 0 {
				linked[x] = true
			} else if !linked[x] {
				t.Fatalf("level %d links %v, which is not on level 0", i, x.k)
			}
			prev = x
		}
	}
}

// TestMemtableConcurrentInsertOrder hammers the lock-free skip list
// with concurrent inserters writing many versions of a small set of
// cells (distinct timestamps, like parallel RemoteWrite batches into
// one tablet), then verifies every level is strictly sorted — the
// bottom one being the order a flush emits.
func TestMemtableConcurrentInsertOrder(t *testing.T) {
	const (
		writers  = 8
		rows     = 4
		versions = 200
	)
	for round := 0; round < 20; round++ {
		m := newMemtable()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for v := 0; v < versions; v++ {
					insertOne(m, skv.Entry{K: skv.Key{
						Row:  fmt.Sprintf("r%02d", (w+v)%rows),
						ColQ: fmt.Sprintf("c%02d", v%8),
						Ts:   int64(w*versions + v),
					}, V: skv.Value("x")})
				}
			}(w)
		}
		wg.Wait()
		checkLevels(t, m)
		if n, want := len(m.snapshot()), writers*versions; n != want {
			t.Fatalf("round %d: %d entries linked, want %d", round, n, want)
		}
	}
}

// modelBatches draws a writer's batches over its own cells — rows
// w, w+writers, w+2·writers, … so concurrent writers interleave in key
// space, and every writer's i-th batch covers the same band of rows so
// writers that start together insert into one region at once — in
// every order a tablet receives: sorted (a fold generation), reversed,
// shuffled, several sorted runs, and sorted cells stamped in batch
// order as a tablet server stamps them, which puts a same-cell pair out
// of key order. Keys come from a small pool, so full keys repeat within
// and across batches. The first two batches are fold generations above
// the install floor — distinct keys, strictly ascending — which a fresh
// memtable installs whole until some writer's later batch takes the
// skip list.
func modelBatches(rng *rand.Rand, w, writers int) [][]skv.Entry {
	const rowsPerWriter, bandRows, batches = 120, 30, 24
	clock := int64(100)
	seq := 0
	band := 0
	cell := func() skv.Key {
		return skv.Key{
			Row:  fmt.Sprintf("r%05d", (band+rng.Intn(bandRows))%rowsPerWriter*writers+w),
			ColQ: fmt.Sprintf("c%d", rng.Intn(4)),
			Ts:   int64(1 + rng.Intn(3)),
		}
	}
	byKey := func(b []skv.Entry) {
		sort.SliceStable(b, func(i, j int) bool { return skv.Compare(b[i].K, b[j].K) < 0 })
	}
	out := make([][]skv.Entry, batches)
	for bi := range out {
		band = bi * bandRows / 2
		b := make([]skv.Entry, 1+rng.Intn(200))
		for i := range b {
			seq++
			b[i] = skv.Entry{K: cell(), V: skv.Value(fmt.Sprintf("w%d-%d", w, seq))}
		}
		switch bi % 5 {
		case 0:
			byKey(b)
		case 1:
			byKey(b)
			for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
				b[i], b[j] = b[j], b[i]
			}
		case 2: // shuffled as drawn
		case 3:
			for lo := 0; lo < len(b); {
				hi := min(len(b), lo+1+rng.Intn(40))
				byKey(b[lo:hi])
				lo = hi
			}
		case 4:
			byKey(b)
			for i := range b {
				b[i].K.Ts = clock + int64(i)
			}
			clock += int64(len(b))
		}
		out[bi] = b
	}
	// Every full key of band 0: 30 rows × 4 qualifiers × 3 stamps.
	var pool []skv.Key
	for r := 0; r < bandRows; r++ {
		for q := 0; q < 4; q++ {
			for ts := 1; ts <= 3; ts++ {
				pool = append(pool, skv.Key{Row: fmt.Sprintf("r%05d", r*writers+w), ColQ: fmt.Sprintf("c%d", q), Ts: int64(ts)})
			}
		}
	}
	gens := make([][]skv.Entry, 2)
	for gi := range gens {
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		b := make([]skv.Entry, installFloor+rng.Intn(len(pool)-installFloor+1))
		for i := range b {
			seq++
			b[i] = skv.Entry{K: pool[i], V: skv.Value(fmt.Sprintf("w%d-%d", w, seq))}
		}
		byKey(b)
		gens[gi] = b
	}
	return append(gens, out...)
}

// stored counts what the memtable holds: skip-list nodes plus installed
// segment entries, full keys repeated across them included — what count
// reports.
func stored(m *memtable) int {
	n := 0
	for x := m.head.next[0].Load(); x != nil; x = x.next[0].Load() {
		n++
	}
	for _, r := range m.segs[:m.nsegs.Load()] {
		n += r.Count()
	}
	return n
}

// TestMemtableBatchMatchesModel pins insertBatch against a map model,
// with one writer and with eight concurrent writers whose sorted
// batches interleave in key space: the snapshot must hold exactly the
// model's keys in key order, each with the value its last write put,
// every skip-list level must stay sorted, and count must equal what is
// stored. The finger search is what this guards: reused across a step
// that does not ascend, or trusting a successor a concurrent insert has
// since moved, it links nodes out of order. So is the install path:
// each writer opens with two fold generations, at least one of which
// the fresh memtable installs, racing the other writers' switch to the
// skip list, and the later batches rewrite installed keys there.
func TestMemtableBatchMatchesModel(t *testing.T) {
	for _, writers := range []int{1, 8} {
		for round := 0; round < 8; round++ {
			t.Run(fmt.Sprintf("writers=%d/round=%d", writers, round), func(t *testing.T) {
				m := newMemtable()
				model := map[skv.Key]string{}
				work := make([][][]skv.Entry, writers)
				for w := range work {
					work[w] = modelBatches(rand.New(rand.NewSource(int64(100*round+w))), w, writers)
					for _, b := range work[w] {
						for _, e := range b {
							model[e.K] = string(e.V)
						}
					}
				}
				var wg sync.WaitGroup
				for w := range work {
					wg.Add(1)
					go func(batches [][]skv.Entry) {
						defer wg.Done()
						for _, b := range batches {
							m.insertBatch(b)
						}
					}(work[w])
				}
				wg.Wait()

				checkLevels(t, m)
				want := make([]skv.Key, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				sort.Slice(want, func(i, j int) bool { return skv.Compare(want[i], want[j]) < 0 })
				got := m.snapshot()
				if len(got) != len(want) || m.count() != stored(m) {
					t.Fatalf("snapshot %d entries, count %d, stored %d, model %d", len(got), m.count(), stored(m), len(want))
				}
				if m.nsegs.Load() == 0 {
					t.Fatal("no fold generation was installed")
				}
				for i, e := range got {
					if e.K != want[i] || string(e.V) != model[e.K] {
						t.Fatalf("entry %d = %v=%q, model %v=%q", i, e.K, e.V, want[i], model[want[i]])
					}
				}
			})
		}
	}
}

// TestMemtableBatchAllocs pins the skip-list path's slab allocation:
// linking a 1 000-entry batch (unsorted, so never installed) into a
// fresh memtable costs a handful of heap objects, not three per entry
// (node, value and tower each on its own).
func TestMemtableBatchAllocs(t *testing.T) {
	batch := benchEntries(1000)
	if newMemtable().insertBatch(batch) {
		t.Fatal("the unsorted batch was installed; this test pins the skip-list path")
	}
	allocs := testing.AllocsPerRun(20, func() {
		newMemtable().insertBatch(batch)
	})
	if allocs > 8 {
		t.Fatalf("1000-entry batch insert made %.0f allocations, want <= 8", allocs)
	}
}

// sortedBatch returns n entries with strictly ascending keys under
// row prefix p, each valued v.
func sortedBatch(p string, n int, v float64) []skv.Entry {
	b := make([]skv.Entry, n)
	for i := range b {
		b[i] = ent(fmt.Sprintf("%s/%05d", p, i), "q", 1, v)
	}
	return b
}

// TestMemtableInstallAllOrNothing: a reader racing installs sees each
// installed batch whole or not at all, and, since one writer installs
// them in order, always a prefix of the batches.
func TestMemtableInstallAllOrNothing(t *testing.T) {
	for round := 0; round < 10; round++ {
		m := newMemtable()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < maxSegments; j++ {
				if !m.insertBatch(sortedBatch(fmt.Sprintf("b%02d", j), installFloor, float64(j))) {
					t.Errorf("batch %d was not installed", j)
					return
				}
				runtime.Gosched()
			}
		}()
		for finished := false; !finished; {
			select {
			case <-done:
				finished = true
			default:
			}
			seen := map[string]int{}
			for _, e := range m.snapshot() {
				seen[e.K.Row[:3]]++
			}
			for j := 0; j < maxSegments; j++ {
				n := seen[fmt.Sprintf("b%02d", j)]
				if n != 0 && n != installFloor {
					t.Fatalf("round %d: reader saw %d of batch %d's %d entries", round, n, j, installFloor)
				}
				if n > 0 && j > 0 && seen[fmt.Sprintf("b%02d", j-1)] == 0 {
					t.Fatalf("round %d: reader saw batch %d without batch %d", round, j, j-1)
				}
			}
		}
	}
}

// TestMemtableSkipListShadowsInstall: a write to the skip list after an
// install — one entry, or a whole sorted batch, which the used skip
// list now takes — shadows the installed value of an equal full key, as
// an in-place overwrite would.
func TestMemtableSkipListShadowsInstall(t *testing.T) {
	m := newMemtable()
	b := sortedBatch("s", installFloor, 1)
	if !m.insertBatch(b) {
		t.Fatal("the sorted batch was not installed")
	}
	insertOne(m, skv.Entry{K: b[7].K, V: skv.EncodeFloat(99)})
	value := func(e skv.Entry) float64 { v, _ := skv.DecodeFloat(e.V); return v }
	snap := m.snapshot()
	if len(snap) != installFloor {
		t.Fatalf("snapshot %d entries, want %d", len(snap), installFloor)
	}
	for i, e := range snap {
		if want := map[bool]float64{true: 99, false: 1}[i == 7]; e.K != b[i].K || value(e) != want {
			t.Fatalf("entry %d = %v=%v, want %v=%v", i, e.K, value(e), b[i].K, want)
		}
	}
	if m.insertBatch(sortedBatch("s", installFloor, 5)) {
		t.Fatal("a batch was installed after the skip list was used")
	}
	for i, e := range m.snapshot() {
		if value(e) != 5 {
			t.Fatalf("entry %d = %v after the rewrite, want 5", i, value(e))
		}
	}
}

// TestMemtableInstallsStop: a batch below the floor or not strictly
// ascending goes to the skip list, after which no batch is installed;
// so does every batch past maxSegments installs.
func TestMemtableInstallsStop(t *testing.T) {
	dup := sortedBatch("d", installFloor, 1)
	dup[9] = dup[8]
	desc := sortedBatch("e", installFloor, 1)
	desc[0], desc[1] = desc[1], desc[0]
	for name, first := range map[string][]skv.Entry{
		"below floor":  sortedBatch("a", installFloor-1, 1),
		"repeated key": dup,
		"descending":   desc,
	} {
		m := newMemtable()
		if m.insertBatch(first) {
			t.Fatalf("%s: installed", name)
		}
		if m.insertBatch(sortedBatch("z", installFloor, 1)) || m.nsegs.Load() != 0 {
			t.Fatalf("%s: a batch was installed after the skip list was used", name)
		}
	}

	m := newMemtable()
	for j := 0; j < maxSegments; j++ {
		if !m.insertBatch(sortedBatch(fmt.Sprintf("c%02d", j), installFloor, 1)) {
			t.Fatalf("batch %d was not installed", j)
		}
	}
	if m.insertBatch(sortedBatch("over", installFloor, 1)) {
		t.Fatal("a batch was installed past the cap")
	}
	if m.insertBatch(sortedBatch("more", installFloor, 1)) {
		t.Fatal("a batch was installed after the skip list was used")
	}
	want := (maxSegments + 2) * installFloor
	if got := len(m.snapshot()); got != want || m.count() != want {
		t.Fatalf("snapshot %d entries, count %d, want %d", got, m.count(), want)
	}
}

// TestMemtableInstallAllocs: installing a batch costs two allocations
// (the run and its index) whatever its length — no node, value or tower
// per entry.
func TestMemtableInstallAllocs(t *testing.T) {
	var got []float64
	for _, n := range []int{installFloor, 16 * installFloor} {
		batch := sortedBatch("a", n, 1)
		const runs = 20
		ms := make([]*memtable, runs+1) // AllocsPerRun warms up with one extra call
		for i := range ms {
			ms[i] = newMemtable()
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if !ms[i].insertBatch(batch) {
				t.Fatal("the sorted batch was not installed")
			}
			i++
		})
		got = append(got, allocs)
	}
	if got[0] > 2 || got[1] > 2 {
		t.Fatalf("installs of %d and %d entries made %v allocations, want 2 each", installFloor, 16*installFloor, got)
	}
}
