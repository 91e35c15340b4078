package tablet

import (
	"fmt"
	"math/rand"
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
// and across batches.
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
	return out
}

// TestMemtableBatchMatchesModel pins insertBatch against a map model,
// with one writer and with eight concurrent writers whose sorted
// batches interleave in key space: the snapshot must hold exactly the
// model's keys in key order, each with the value its last write put,
// and every skip-list level must stay sorted. The finger search is
// what this guards: reused across a step that does not ascend, or
// trusting a successor a concurrent insert has since moved, it links
// nodes out of order.
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
				if len(got) != len(want) || m.count() != len(want) {
					t.Fatalf("snapshot %d entries, count %d, model %d", len(got), m.count(), len(want))
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

// TestMemtableBatchAllocs pins the batch's slab allocation: inserting
// a 1 000-entry batch into a fresh memtable costs a handful of heap
// objects, not three per entry (node, value and tower each on its own).
func TestMemtableBatchAllocs(t *testing.T) {
	batch := benchEntries(1000)
	allocs := testing.AllocsPerRun(20, func() {
		newMemtable().insertBatch(batch)
	})
	if allocs > 8 {
		t.Fatalf("1000-entry batch insert made %.0f allocations, want <= 8", allocs)
	}
}
