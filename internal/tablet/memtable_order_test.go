package tablet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphulo/internal/skv"
)

// insertBatch sorts b and installs it, as Tablet.Write does, and
// returns the number of segments merged at the cap.
func insertBatch(m *memtable, b []skv.Entry) int { return m.install(sortBatch(b)) }

// insertOne inserts a single entry as a one-entry batch.
func insertOne(m *memtable, e skv.Entry) { insertBatch(m, []skv.Entry{e}) }

// segments returns the memtable's published segments, oldest first.
func segments(m *memtable) []*memRun {
	l := m.segs.Load()
	return l.runs[:l.n.Load()]
}

// TestMemtableConcurrentInsertOrder: eight writers install shuffled
// batches into one memtable, enough of them to merge at the segment
// cap again and again, while a reader keeps taking snapshots. Every
// snapshot must be strictly sorted and hold each batch whole or not at
// all, and the last one every entry written.
func TestMemtableConcurrentInsertOrder(t *testing.T) {
	const writers, batches = 8, 40
	for round := 0; round < 5; round++ {
		m := newMemtable()
		sizes, written := map[string]int{}, 0
		work := make([][][]skv.Entry, writers)
		rng := rand.New(rand.NewSource(int64(round)))
		for w := range work {
			for bi := 0; bi < batches; bi++ {
				id := fmt.Sprintf("w%d-b%02d", w, bi)
				b := make([]skv.Entry, 1+rng.Intn(16))
				for i := range b {
					b[i] = skv.Entry{K: skv.Key{Row: fmt.Sprintf("r%03d", rng.Intn(100)), ColQ: id, Ts: int64(i)}}
				}
				sizes[id] = len(b)
				written += len(b)
				work[w] = append(work[w], b)
			}
		}
		var wg sync.WaitGroup
		var merged atomic.Int64
		for w := range work {
			wg.Add(1)
			go func(batches [][]skv.Entry) {
				defer wg.Done()
				for _, b := range batches {
					merged.Add(int64(insertBatch(m, b)))
				}
			}(work[w])
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for finished := false; !finished; {
			select {
			case <-done:
				finished = true
			default:
			}
			snap := m.snapshot()
			seen := map[string]int{}
			for i, e := range snap {
				if i > 0 && skv.Compare(snap[i-1].K, e.K) >= 0 {
					t.Fatalf("round %d: snapshot unsorted at %d: %v then %v", round, i, snap[i-1].K, e.K)
				}
				seen[e.K.ColQ]++
			}
			total := 0
			for id, n := range seen {
				if n != sizes[id] {
					t.Fatalf("round %d: snapshot holds %d of batch %s's %d entries", round, n, id, sizes[id])
				}
				total += n
			}
			if finished && total != written {
				t.Fatalf("round %d: final snapshot %d entries, want %d", round, total, written)
			}
		}
		if n := len(segments(m)); n > maxSegments || merged.Load() == 0 {
			t.Fatalf("round %d: %d segments after %d merged at the cap %d", round, n, merged.Load(), maxSegments)
		}
	}
}

// modelBatches draws a writer's batches over its own cells — rows
// w, w+writers, w+2·writers, … so concurrent writers interleave in key
// space, and every writer's i-th batch covers the same band of rows so
// writers that start together write into one region at once — in
// every order a tablet receives: sorted (a fold generation), reversed,
// shuffled, several sorted runs, and sorted cells stamped in batch
// order as a tablet server stamps them, which puts a same-cell pair out
// of key order. Keys come from a small pool, so full keys repeat within
// and across batches. The first two batches are fold generations of at
// least 256 distinct keys in strictly ascending order, which install
// without a sort; the later batches rewrite their keys.
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
		b := make([]skv.Entry, 256+rng.Intn(len(pool)-256+1))
		for i := range b {
			seq++
			b[i] = skv.Entry{K: pool[i], V: skv.Value(fmt.Sprintf("w%d-%d", w, seq))}
		}
		byKey(b)
		gens[gi] = b
	}
	return append(gens, out...)
}

// stored counts what the memtable's segments hold, full keys repeated
// across them included — what count reports.
func stored(m *memtable) int {
	n := 0
	for _, r := range segments(m) {
		n += r.Count()
	}
	return n
}

// TestMemtableBatchMatchesModel pins sortBatch and install against a
// map model, with one writer and with eight concurrent writers whose
// batches interleave in key space: the snapshot must hold exactly the
// model's keys in key order, each with the value its last write put,
// and count must equal what is stored. Eight writers install 208
// batches, so the cap merges race the installs; a merge that let an
// older segment's value shadow a newer one, or dropped a batch
// installed while it ran, fails here.
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
							insertBatch(m, b)
						}
					}(work[w])
				}
				wg.Wait()

				want := make([]skv.Key, 0, len(model))
				for k := range model {
					want = append(want, k)
				}
				sort.Slice(want, func(i, j int) bool { return skv.Compare(want[i], want[j]) < 0 })
				got := m.snapshot()
				if len(got) != len(want) || m.count() != stored(m) {
					t.Fatalf("snapshot %d entries, count %d, stored %d, model %d", len(got), m.count(), stored(m), len(want))
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

// TestMemtableBatchAllocs: sorting an unsorted 1 000-entry batch and
// installing it costs a handful of heap objects (the sort's positions
// and copy, the run and its index), not one per entry.
func TestMemtableBatchAllocs(t *testing.T) {
	batch := benchEntries(1000)
	allocs := testing.AllocsPerRun(20, func() {
		sorted := sortBatch(batch)
		if len(sorted) != len(batch) {
			t.Fatalf("sorted batch holds %d entries, want %d", len(sorted), len(batch))
		}
		newMemtable().install(sorted)
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

// value decodes an entry's float value.
func value(e skv.Entry) float64 { v, _ := skv.DecodeFloat(e.V); return v }

// TestMemtableInstallAllOrNothing: a reader racing installs sees each
// installed batch whole or not at all, and, since one writer installs
// them in order, always a prefix of the batches.
func TestMemtableInstallAllOrNothing(t *testing.T) {
	const batchLen = 256
	for round := 0; round < 10; round++ {
		m := newMemtable()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < maxSegments; j++ {
				if insertBatch(m, sortedBatch(fmt.Sprintf("b%02d", j), batchLen, float64(j))) != 0 {
					t.Errorf("batch %d merged segments below the cap", j)
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
				if n != 0 && n != batchLen {
					t.Fatalf("round %d: reader saw %d of batch %d's %d entries", round, n, j, batchLen)
				}
				if n > 0 && j > 0 && seen[fmt.Sprintf("b%02d", j-1)] == 0 {
					t.Fatalf("round %d: reader saw batch %d without batch %d", round, j, j-1)
				}
			}
		}
	}
}

// TestMemtableLaterBatchShadows: a later write of an equal full key
// shadows the earlier one — within one batch, across segments, and
// across the cap merge that folds both segments into one.
func TestMemtableLaterBatchShadows(t *testing.T) {
	m := newMemtable()
	b := sortedBatch("s", 256, 1)
	keys := make([]skv.Key, len(b))
	for i, e := range b {
		keys[i] = e.K
	}
	insertBatch(m, b)
	// One batch writes key 7 twice, out of order: the second write wins.
	insertBatch(m, []skv.Entry{
		{K: keys[7], V: skv.EncodeFloat(98)}, {K: keys[3], V: skv.EncodeFloat(1)}, {K: keys[7], V: skv.EncodeFloat(99)},
	})
	check := func(stage string, want func(i int) float64) {
		t.Helper()
		var snap []skv.Entry
		for _, e := range m.snapshot() {
			if strings.HasPrefix(e.K.Row, "s/") {
				snap = append(snap, e)
			}
		}
		if len(snap) != len(keys) {
			t.Fatalf("%s: snapshot %d entries, want %d", stage, len(snap), len(keys))
		}
		for i, e := range snap {
			if e.K != keys[i] || value(e) != want(i) {
				t.Fatalf("%s: entry %d = %v=%v, want %v=%v", stage, i, e.K, value(e), keys[i], want(i))
			}
		}
	}
	check("across segments", func(i int) float64 { return map[bool]float64{true: 99, false: 1}[i == 7] })

	// The original batch, a rewrite of every key, and 62 more segments of
	// the same size over other rows: one tier, so the 65th install
	// merges all 64, the rewrite and its original among them.
	m = newMemtable()
	insertBatch(m, sortedBatch("s", 256, 1))
	insertBatch(m, sortedBatch("s", 256, 5))
	for j := 0; j < maxSegments-2; j++ {
		insertBatch(m, sortedBatch(fmt.Sprintf("t%02d", j), 256, 7))
	}
	if merged := insertBatch(m, sortedBatch("u", 256, 7)); merged != maxSegments {
		t.Fatalf("the cap merge folded %d segments, want all %d", merged, maxSegments)
	}
	check("across a cap merge", func(int) float64 { return 5 })
	// The merge folded the original away; the "u" batch came after it.
	if m.count() != stored(m) || m.count() != maxSegments*256 {
		t.Fatalf("after the cap merge: count %d, stored %d, want %d", m.count(), stored(m), maxSegments*256)
	}
}

// TestMemtableSegmentCap: 64 batches install as 64 segments; the 65th
// merges a tier first, and the memtable never holds more than 64. Then
// 16 384 single-entry writes of distinct keys in random order: every
// install stays under the cap, the contents equal the model, and cap
// merges copy an entry at most 3 times on average (2.0 measured): the
// picker folds tiers of similar size, so an entry is copied again only
// once its segment's neighbours have grown to its size.
func TestMemtableSegmentCap(t *testing.T) {
	m := newMemtable()
	for j := 0; j < maxSegments; j++ {
		if merged := insertBatch(m, sortedBatch(fmt.Sprintf("c%02d", j), 256, 1)); merged != 0 {
			t.Fatalf("batch %d merged %d segments below the cap", j, merged)
		}
	}
	if merged := insertBatch(m, sortedBatch("over", 256, 1)); merged < 2 {
		t.Fatalf("the 65th batch merged %d segments, want a tier", merged)
	}
	if n := len(segments(m)); n > maxSegments {
		t.Fatalf("%d segments after the 65th batch, cap %d", n, maxSegments)
	}
	if got, want := len(m.snapshot()), (maxSegments+1)*256; got != want || m.count() != want {
		t.Fatalf("snapshot %d entries, count %d, want %d", got, m.count(), want)
	}

	const writes = 1 << 14
	m = newMemtable()
	model := map[skv.Key]float64{}
	rng := rand.New(rand.NewSource(1))
	copies := 0
	for i, row := range rng.Perm(writes) {
		before := map[*memRun]bool{}
		for _, r := range segments(m) {
			before[r] = true
		}
		e := ent(fmt.Sprintf("r%05d", row), "q", 1, float64(i))
		model[e.K] = float64(i)
		if insertBatch(m, []skv.Entry{e}) > 0 {
			segs := segments(m)
			for _, r := range segs[:len(segs)-1] { // the last is the new entry's
				if !before[r] {
					copies += r.Count()
				}
			}
		}
		if n := len(segments(m)); n > maxSegments {
			t.Fatalf("write %d: %d segments, cap %d", i, n, maxSegments)
		}
	}
	snap := m.snapshot()
	if len(snap) != len(model) || m.count() != stored(m) {
		t.Fatalf("snapshot %d entries, count %d, stored %d, model %d", len(snap), m.count(), stored(m), len(model))
	}
	for _, e := range snap {
		if model[e.K] != value(e) {
			t.Fatalf("%v = %v, model %v", e.K, value(e), model[e.K])
		}
	}
	t.Logf("%d single-entry writes: %d entry copies in cap merges, %.1f per entry", writes, copies, float64(copies)/writes)
	if copies > 3*writes {
		t.Fatalf("%d single-entry writes made %d entry copies in cap merges, want at most %d", writes, copies, 3*writes)
	}
}

// TestMemtableInstallAllocs: installing a sorted batch costs two
// allocations (the run and its index) whatever its length — nothing per
// entry, and no sort.
func TestMemtableInstallAllocs(t *testing.T) {
	var got []float64
	for _, n := range []int{256, 4096} {
		batch := sortedBatch("a", n, 1)
		const runs = 20
		ms := make([]*memtable, runs+1) // AllocsPerRun warms up with one extra call
		for i := range ms {
			ms[i] = newMemtable()
		}
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			insertBatch(ms[i], batch)
			i++
		})
		got = append(got, allocs)
	}
	if got[0] > 2 || got[1] > 2 {
		t.Fatalf("installs of 256 and 4096 entries made %v allocations, want 2 each", got)
	}
}
