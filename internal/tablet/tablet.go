// Package tablet implements the storage engine under each tablet server:
// a memtable absorbing writes (a skip list beside installed sorted
// segments), immutable sorted runs ("RFiles") produced by minor
// compaction, k-way merged reads, and major compaction folding runs
// together with the table's compaction iterator stack.
//
// A tablet owns a contiguous row range of one table, exactly as in
// Accumulo; splitting a tablet at a row boundary yields two tablets that
// partition its range (the split receiver is retired and refuses further
// compactions).
//
// Every tablet runs the same code over one of two Backings, the only
// place durability is decided. An in-memory tablet (New) has a no-op
// log and keeps its runs on the heap, losing everything at process
// exit. A durable tablet (NewDurable) is wired to the Backing that
// internal/store implements and follows the Accumulo write path: every
// write batch is appended to a write-ahead log before entering the
// memtable, and each compaction writes one rfile and drops the WAL
// segments it covers. After a crash, the store replays the WAL into the
// memtable, so scans see exactly the acknowledged writes.
//
// # One compaction routine
//
// The run list changes in one way: replaceLocked merges the oldest k
// frozen memtables with the runs at [lo, hi) through one iterator
// stack and swaps the result in at lo through Backing.Replace. A flush
// is (1, [n,n), the memtable's rotation mark) and runs the table's
// minc stack: a background flush the one SetFlushStack provides,
// MinorCompact the one its caller passes. MajorCompact is (every
// frozen memtable, [0,n), the mark of its own rotation) and a
// size-tiered merge — MergeRuns, or the run bound's post-flush step —
// is (0, [lo,hi), mark 0: no WAL is touched), both with the table's
// majc stack. A tablet given no flush stack (a standalone server's)
// flushes its memtables unchanged. Every stack is built before
// compactMu is taken: building one reads the table's metadata, which a
// split holds while it waits for compactMu.
//
// # Write-path concurrency
//
// The ingest hot path is built so writers never wait on scans, flushes,
// or each other beyond the WAL's group commit:
//
//   - The memtable is a lock-free concurrent skip list beside a short
//     list of installed sorted segments; concurrent Write calls insert
//     in parallel, and scans merge the live structures under a
//     sequence-number watermark instead of copying them. A batch of at
//     least installFloor strictly ascending keys — a kernel's fold
//     generation — into a memtable whose skip list is still unused is
//     installed whole: the segment keeps the caller's slice, with no
//     per-entry node, and readers see all of it or none. Any other
//     batch is linked into the skip list as a batch: one slab each for
//     the nodes, values and towers, and a finger search from the
//     previous key, used only while the keys ascend strictly and
//     validated level by level against concurrent inserts.
//   - Writers hold freezeMu.RLock around WAL-append + insert; a freeze
//     takes the write side to atomically rotate the WAL and swap in a
//     fresh memtable. That keeps the durability invariant — every WAL
//     record covered by a rotation mark is in the frozen memtable, not
//     the new active one — without a global write lock.
//   - A full memtable is frozen and queued; a background goroutine
//     flushes the queue to runs through the table's minc stack
//     (serialised on compactMu with manual compactions), so Write never
//     runs a minor compaction inline.
//     Scans merge active + frozen + runs. When the frozen queue backs
//     up past DefaultMaxFrozen, writers stall and the stall time is
//     counted.
//
// # Read-path maintenance
//
// Every scan k-way merges the memtable with all live runs, so scan cost
// grows with the run count, which every memtable spill grows. Two
// mechanisms keep the read path fast:
//
//   - The durable runs' rfiles carry bloom filters and share the data
//     directory's block cache (see internal/rfile), so merged reads
//     skip files that cannot contain a sought row and decode each
//     resident block once across scans.
//   - Runs are bounded where they are made. After every flush, a tablet
//     over its RunBound folds contiguous tiers of similar-sized runs
//     with the table's majc stack until it is back under, so steady
//     ingest folds its fresh small runs without rewriting large old
//     ones. The merge runs once the flush releases compactMu, under the
//     bound's lock, which the table's tablets share: one merge at a time
//     per table, and a flush never waits on another tablet's merge. A
//     scan's snapshot pins the pre-merge runs until it finishes.
package tablet

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// DefaultMaxFrozen is every tablet's frozen-memtable queue depth;
// writers stall once the background flusher falls this far behind,
// converting unbounded memory growth into measured backpressure
// (telemetry.WriteStallNanos).
const DefaultMaxFrozen = 2

// DefaultFlushBytes is the approximate memtable byte footprint that
// freezes a tablet's memtable regardless of its entry count: wide
// values spill on bytes, narrow values on the entry limit, whichever
// trips first.
const DefaultFlushBytes = 64 << 20

// Backing is where a tablet's log and runs live: memBacking for an
// in-memory tablet, the internal/store package's data directory for a
// durable one. All entry slices handed over are sorted and fully
// merged.
type Backing interface {
	// LogAsync appends one write batch to the tablet's WAL without
	// waiting for the fsync, returning a token for WaitDurable. Called
	// with the tablet's freeze lock held shared, so a freeze's rotation
	// mark cleanly separates batches logged before it (in the frozen
	// memtable) from after (in the new active one). Concurrent writers
	// may interleave, ordered only by the WAL's own internal lock.
	LogAsync(batch []skv.Entry) (seq uint64, err error)
	// WaitDurable blocks until the batch identified by seq is on stable
	// storage; called outside the freeze lock so concurrent writers
	// share fsyncs (group commit).
	WaitDurable(seq uint64) error
	// Rotate starts a fresh WAL segment and returns a mark covering all
	// records logged so far. Called with the freeze lock held exclusive
	// at memtable swap time, so the swap and the mark agree.
	Rotate() (mark uint64, err error)
	// Replace persists one change of the run list: entries become one
	// new run in place of the runs at [lo, hi) of the tablet's
	// oldest-first list (a flush appends: lo == hi == len), and, when
	// mark is non-zero, WAL segments <= mark are dropped. With no
	// entries the group simply disappears and the returned Run is nil.
	Replace(entries []skv.Entry, lo, hi int, mark uint64) (Run, error)
	// Split atomically replaces this tablet's state with two halves at
	// the row boundary, returning each half's backing and its initial
	// run (nil when that half is empty).
	Split(row string, left, right []skv.Entry) (lb, rb Backing, lrun, rrun Run, err error)
}

// frozenMem is an immutable memtable awaiting background flush, paired
// with the WAL rotation mark covering exactly its records.
type frozenMem struct {
	mem  *memtable
	mark uint64
}

// Tablet owns the contiguous row range [StartRow, EndRow) of one table
// ("" bounds are infinite). Writes land in the active memtable; a full
// memtable is frozen (swapped for a fresh one) and flushed to an
// immutable run in the background; major compaction merges runs. Scans
// merge the active memtable, frozen memtables, and every live run.
type Tablet struct {
	StartRow string // inclusive; "" = -inf
	EndRow   string // exclusive; "" = +inf

	// freezeMu orders writers against freezes. Writers hold the read
	// side across WAL-append + memtable insert; a freeze holds the
	// write side across WAL rotation + active-memtable swap. So every
	// record covered by a rotation mark is in the frozen memtable, and
	// writers never block each other here.
	freezeMu sync.RWMutex
	active   atomic.Pointer[memtable]

	mu         sync.Mutex
	flushCond  *sync.Cond   // signalled when the frozen queue drains
	frozen     []*frozenMem // oldest first, awaiting background flush
	flushErr   error        // last flush failure; cleared by a success that consumes frozen memtables
	runs       []Run
	memLimit   int // entries before freeze
	flushBytes int // approx memtable bytes before freeze
	backing    Backing
	retired    bool // set by SplitAt; the tablet must absorb no more work

	// stats receives the write-path counters: MemtableInstalls per
	// batch installed whole, MemtableFreezes per freeze-and-swap,
	// WriteStallNanos for the time writers spent stalled on frozen-queue
	// backpressure, and the bound's merges and merge failures. nil
	// counts nothing.
	stats *telemetry.StatSet
	bound *RunBound // caps the run count after every flush; nil: unbounded
	// minc returns the table's current minc iterator stack, read per
	// flush; nil (or a nil stack) flushes the memtable as it is.
	minc func() func(iterator.SKVI) (iterator.SKVI, error)

	// compactMu serialises frozen-queue flushes, minor/major
	// compactions, and splits against each other (writes and scans stay
	// concurrent). Without it, two overlapping compactions could each
	// rotate the WAL and the later one drop segments whose entries the
	// earlier one has snapshotted but not yet persisted — losing
	// acknowledged writes on crash — or a major compaction could
	// clobber the run a concurrent background flush just added.
	compactMu sync.Mutex
}

// New creates an empty in-memory tablet over [startRow, endRow). The
// fourth parameter is unused (skip-list tower heights are drawn per
// batch); it stays for the benchmark ladder, which passes a seed.
func New(startRow, endRow string, memLimit int, _ int64) *Tablet {
	return NewDurable(startRow, endRow, memLimit, memBacking{}, nil, nil)
}

// NewDurable creates a tablet wired to backing b. runs are the
// recovered runs, oldest first, and replay holds WAL entries to restore
// into the memtable (both nil for a fresh tablet); the memtable may keep
// the replay slice.
func NewDurable(startRow, endRow string, memLimit int, b Backing, runs []Run, replay []skv.Entry) *Tablet {
	if memLimit <= 0 {
		memLimit = 1 << 14
	}
	t := &Tablet{
		StartRow:   startRow,
		EndRow:     endRow,
		runs:       runs,
		memLimit:   memLimit,
		flushBytes: DefaultFlushBytes,
		backing:    b,
	}
	t.flushCond = sync.NewCond(&t.mu)
	mem := newMemtable()
	mem.insertBatch(replay)
	t.active.Store(mem)
	return t
}

// SetFlushBytes replaces DefaultFlushBytes as the approximate memtable
// byte budget that triggers a freeze, so tests can exercise the byte
// trigger with small writes. Call before the tablet takes traffic.
func (t *Tablet) SetFlushBytes(n int) { t.flushBytes = n }

// SetStats points the tablet at the counter block it counts into. Call
// before the tablet takes traffic.
func (t *Tablet) SetStats(s *telemetry.StatSet) { t.stats = s }

// SetRunBound makes every flush fold runs past b's bound (nil leaves
// the run count unbounded). Call before the tablet takes traffic; split
// halves inherit it.
func (t *Tablet) SetRunBound(b *RunBound) { t.bound = b }

// SetFlushStack makes every flush run the stack minc returns — the
// table's minc scope, read per flush so iterator changes are picked up
// — as MinorCompact runs the stack it is given. nil flushes memtables
// unchanged. Call before the tablet takes traffic; split halves inherit
// it.
func (t *Tablet) SetFlushStack(minc func() func(iterator.SKVI) (iterator.SKVI, error)) {
	t.minc = minc
}

// RunCount returns the number of live immutable runs — the k-way merge
// width a scan pays on top of the memtables.
func (t *Tablet) RunCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.runs)
}

// RunSizes returns the entry counts of the live runs, oldest first —
// the size profile the size-tiered compaction picker works from.
func (t *Tablet) RunSizes() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.runs))
	for i, r := range t.runs {
		out[i] = r.Count()
	}
	return out
}

// Retired reports whether the tablet has been split away and must not
// absorb further work.
func (t *Tablet) Retired() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retired
}

// Write logs entries (which must belong to this tablet's range) to the
// backing's WAL and inserts them into the active memtable as one batch:
// installed whole as a sorted segment when the batch qualifies (counted
// as MemtableInstalls), linked into the skip list otherwise. The
// memtable may keep entries itself, so the caller must not modify the
// slice's entries after Write. The critical section is the freeze
// lock's read side around WAL-append + insert, so concurrent writers
// proceed in parallel; the fsync wait happens outside it (group
// commit), and a full memtable is frozen for background flush rather
// than compacted inline.
func (t *Tablet) Write(entries []skv.Entry) error {
	if err := t.stallForFrozen(); err != nil {
		return err
	}
	t.freezeMu.RLock()
	seq, err := t.backing.LogAsync(entries)
	if err != nil {
		t.freezeMu.RUnlock()
		return err
	}
	mem := t.active.Load()
	if mem.insertBatch(entries) {
		t.stats.Add(telemetry.MemtableInstalls, 1)
	}
	needFreeze := mem.count() >= t.memLimit || mem.approxBytes() >= t.flushBytes
	t.freezeMu.RUnlock()
	if err := t.backing.WaitDurable(seq); err != nil {
		return err
	}
	if needFreeze {
		return t.freeze(mem)
	}
	return nil
}

// stallForFrozen blocks while the frozen queue is at capacity —
// backpressure when ingest outruns the background flusher — counting
// the stalled time. A sticky background-flush failure is surfaced to
// the writer instead of deadlocking it.
func (t *Tablet) stallForFrozen() error {
	t.mu.Lock()
	if len(t.frozen) < DefaultMaxFrozen || t.retired {
		t.mu.Unlock()
		return nil
	}
	start := time.Now()
	for len(t.frozen) >= DefaultMaxFrozen && t.flushErr == nil && !t.retired {
		t.flushCond.Wait()
	}
	err := t.flushErr
	t.mu.Unlock()
	t.stats.Add(telemetry.WriteStallNanos, time.Since(start).Nanoseconds())
	return err
}

// freeze queues old for background flush and swaps in a fresh active
// memtable. A no-op if old is no longer the active memtable —
// concurrent writers that all saw the memtable full race here, and one
// wins.
func (t *Tablet) freeze(old *memtable) error {
	t.freezeMu.Lock()
	if t.active.Load() != old || old.count() == 0 {
		t.freezeMu.Unlock()
		return nil
	}
	_, err := t.rotateLocked()
	t.freezeMu.Unlock()
	if err == nil {
		go t.flushFrozen()
	}
	return err
}

// rotateLocked rotates the WAL and, when the active memtable holds
// entries, queues it frozen under the rotation mark and swaps in a
// fresh one. Caller holds freezeMu exclusively, so no writer is between
// WAL-append and insert: the mark covers exactly the records of the
// frozen queue.
func (t *Tablet) rotateLocked() (mark uint64, err error) {
	if mark, err = t.backing.Rotate(); err != nil {
		return 0, err
	}
	if old := t.active.Load(); old.count() > 0 {
		// Queue before swapping: a concurrent Snapshot loads the active
		// memtable first and the frozen list second, so old is visible
		// in at least one of the two at every instant (both for a
		// moment — the dedup merge collapses that harmlessly).
		t.mu.Lock()
		t.frozen = append(t.frozen, &frozenMem{mem: old, mark: mark})
		t.mu.Unlock()
		t.active.Store(newMemtable())
		t.stats.Add(telemetry.MemtableFreezes, 1)
	}
	return mark, nil
}

// flushFrozen is the background flusher a freeze starts: it drains the
// frozen queue through the table's minc stack, then runs the post-flush
// merge step.
func (t *Tablet) flushFrozen() {
	defer t.boundRuns() // deferred first: runs once compactMu is released
	// Only what is queued before the stack is read is drained with it:
	// a memtable frozen later has its own flusher, which reads the
	// stack after that freeze, so a write that follows an iterator
	// change is never folded by the stack the change replaced.
	t.mu.Lock()
	var last *frozenMem
	if n := len(t.frozen); n > 0 {
		last = t.frozen[n-1]
	}
	t.mu.Unlock()
	if last == nil {
		return
	}
	var stack func(iterator.SKVI) (iterator.SKVI, error)
	if t.minc != nil {
		// Built outside compactMu, as boundRuns builds its stack.
		stack = t.minc()
	}
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	_ = t.drainFrozenLocked(last, stack) // a failure is kept in flushErr for writers
}

// drainFrozenLocked flushes the frozen queue to runs, oldest first,
// through last (nil: until it is empty), stopping at a failed flush. A
// failed memtable stays queued and scannable, its WAL segments intact,
// so nothing is lost: the error is parked in flushErr for stalled
// writers and retried by the next freeze or MinorCompact. A retired
// tablet's queue is never drained (the split carried its entries to
// the halves). Caller holds compactMu.
func (t *Tablet) drainFrozenLocked(last *frozenMem, stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	for {
		t.mu.Lock()
		if t.retired || len(t.frozen) == 0 || (last != nil && !slices.Contains(t.frozen, last)) {
			t.mu.Unlock()
			return nil
		}
		n, mark := len(t.runs), t.frozen[0].mark
		t.mu.Unlock()
		if err := t.replaceLocked(1, n, n, mark, stack); err != nil {
			// flushErr is set only here, by a failed flush.
			t.mu.Lock()
			t.flushErr = err
			t.flushCond.Broadcast()
			t.mu.Unlock()
			return err
		}
	}
}

// WaitFlush blocks until every queued frozen memtable has been flushed
// by the background flusher (or a flush failure is pending), then runs
// the post-flush merge step, for callers that need a settled, bounded
// run list without forcing a freeze.
func (t *Tablet) WaitFlush() error {
	t.mu.Lock()
	for len(t.frozen) > 0 && t.flushErr == nil {
		t.flushCond.Wait()
	}
	err := t.flushErr
	t.mu.Unlock()
	t.boundRuns()
	return err
}

// MinorCompact synchronously freezes the active memtable and drains the
// whole frozen queue into runs, applying the optional compaction
// iterator stack (e.g. a summing combiner) on the way out — Accumulo's
// minc scope — then runs the post-flush merge step. Durable tablets
// write each run as an rfile and reclaim the WAL segments it covers.
func (t *Tablet) MinorCompact(stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	defer t.boundRuns() // deferred first: runs once compactMu is released
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	if t.Retired() {
		return nil // the halves own the data now
	}
	t.freezeMu.Lock()
	mark, err := t.rotateLocked()
	t.freezeMu.Unlock()
	if err != nil {
		return err
	}
	if err := t.drainFrozenLocked(nil, stack); err != nil {
		return err
	}
	// Every record under mark is in a run now. Reclaim the WAL segments
	// through it even when no memtable was flushed: they pile up across
	// reopens otherwise.
	n := t.RunCount()
	return t.replaceLocked(0, n, n, mark, nil)
}

// MajorCompact merges all runs (and the memtables) into a single run,
// applying the optional compaction stack — Accumulo's majc scope with
// the flush flag. Durable tablets replace every rfile with the merged
// one and reclaim all covered WAL segments.
func (t *Tablet) MajorCompact(stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	if t.Retired() {
		// A caller can race a split: it fetched this tablet, then
		// SplitAt replaced it. The halves own the data now.
		return nil
	}
	// The rotation mark covers exactly the records of everything this
	// compaction merges: the frozen queue (the active memtable joins
	// it) and the runs.
	t.freezeMu.Lock()
	mark, err := t.rotateLocked()
	t.freezeMu.Unlock()
	if err != nil {
		return err
	}
	t.mu.Lock()
	k, n := len(t.frozen), len(t.runs)
	t.mu.Unlock()
	// On failure the frozen memtables stay queued and scannable.
	return t.replaceLocked(k, 0, n, mark, stack)
}

// MergeRuns folds the contiguous run group [lo, hi) — positions in the
// oldest-first run list — into a single run, applying the optional
// compaction stack. This is the size-tiered partial compaction: the
// memtable and the runs outside the group are untouched, so merging a
// tier of small runs never rewrites a large old run the way a full
// MajorCompact would. The group is contiguous so the merged run keeps
// its position, preserving newest-shadows-oldest order across the rest
// of the run list; the compaction stack's ⊕ combiners are associative
// and commutative, so folding a subset now and the rest at scan time
// yields the same cells. The WAL is untouched (the group's data is
// already durable in rfiles).
//
// The indices are validated against the current run list under the
// compaction lock, so a caller working from a stale RunSizes snapshot
// gets an error rather than merging the wrong group.
func (t *Tablet) MergeRuns(lo, hi int, stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.mu.Lock()
	retired, n := t.retired, len(t.runs)
	t.mu.Unlock()
	if retired {
		return nil // as in MajorCompact: a caller can race a split
	}
	if lo < 0 || hi > n || hi-lo < 2 {
		return fmt.Errorf("tablet: merge group [%d,%d) invalid for %d runs", lo, hi, n)
	}
	// Mark 0: a merge drops no WAL segment, so the store skips the
	// directory listing a drop costs.
	return t.replaceLocked(0, lo, hi, 0, stack)
}

// DefaultMergeRatio is the size-similarity bound for tiered picking:
// runs belong to one tier when the group's largest is at most this
// multiple of its smallest.
const DefaultMergeRatio = 2

// RunBound is one table's run-count bound, shared by its tablets: after
// every flush a tablet holding more than maxRuns runs folds size tiers
// until it is back under. Its lock admits one merge per table at a time
// and is taken before any tablet's compaction mutex, never after.
type RunBound struct {
	maxRuns int
	stack   func() func(iterator.SKVI) (iterator.SKVI, error)

	mu     sync.Mutex // held across a tablet's merge step
	closed bool
}

// NewRunBound bounds a table's tablets at maxRuns (>= 1) runs; stack
// returns the table's current majc iterator stack, read per merge so
// iterator changes are picked up.
func NewRunBound(maxRuns int, stack func() func(iterator.SKVI) (iterator.SKVI, error)) *RunBound {
	return &RunBound{maxRuns: max(maxRuns, 1), stack: stack}
}

// Close waits out an in-flight merge and refuses every later one, so
// nothing merges into the tablets' storage after it returns. A nil
// bound has nothing to close.
func (b *RunBound) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
}

// boundRuns is the post-flush merge step: under the bound's lock, while
// the tablet holds more than the bound's runs, it folds one size tier
// with the table's majc stack. A failed merge is counted and leaves the
// runs for the next flush; it never fails the flush.
func (t *Tablet) boundRuns() {
	b := t.bound
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && t.RunCount() > b.maxRuns {
		// The stack is built outside compactMu: building it reads the
		// table's metadata, which a split holds across SplitAt.
		merged, err := t.mergeTier(b.maxRuns, b.stack())
		if err != nil {
			t.stats.Add(telemetry.MajorCompactionErrors, 1)
			return
		}
		if !merged {
			return
		}
		t.stats.Add(telemetry.MajorCompactions, 1)
	}
}

// mergeTier folds the pickMergeGroup tier when the tablet, not retired,
// holds more than maxRuns runs, re-checking both under compactMu.
func (t *Tablet) mergeTier(maxRuns int, stack func(iterator.SKVI) (iterator.SKVI, error)) (bool, error) {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	// Both change only under compactMu.
	sizes := t.RunSizes()
	if t.Retired() || len(sizes) <= maxRuns {
		return false, nil
	}
	lo, hi := pickMergeGroup(sizes, DefaultMergeRatio)
	err := t.replaceLocked(0, lo, hi, 0, stack)
	return err == nil, err
}

// replaceLocked is the one way the run list changes: it merges the
// oldest k frozen memtables with the runs at [lo, hi) through the
// optional stack, persists the result with Backing.Replace (which drops
// WAL segments <= mark, none when mark is 0), and swaps it in at lo
// (nothing when the stack left no entry). Caller holds compactMu, so
// neither the run list nor the oldest k frozen memtables change under
// it.
func (t *Tablet) replaceLocked(k, lo, hi int, mark uint64, stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	t.mu.Lock()
	sources := make([]iterator.SKVI, 0, k+hi-lo)
	size := 0
	for i := k - 1; i >= 0; i-- { // newest first, as Snapshot orders them
		sources = t.frozen[i].mem.sources(sources)
		size += t.frozen[i].mem.count()
	}
	for i := hi - 1; i >= lo; i-- {
		sources = append(sources, t.runs[i].Iter())
		size += t.runs[i].Count()
	}
	t.mu.Unlock()

	// One source (a flush of a memtable holding only a skip list or one
	// segment) is drained directly: a single sorted source needs no
	// merge wrapper.
	var src iterator.SKVI
	if len(sources) == 1 {
		src = sources[0]
	} else {
		src = iterator.NewDedupMergeIter(sources...)
	}
	entries, err := applyStack(src, stack, size)
	if err != nil {
		return err
	}
	r, err := t.backing.Replace(entries, lo, hi, mark)
	if err != nil {
		return err
	}
	// Swap the memtables out of the frozen queue and the run in under
	// one lock hold, so a concurrent Snapshot sees the data in exactly
	// one place.
	t.mu.Lock()
	runs := make([]Run, 0, len(t.runs)-(hi-lo)+1)
	runs = append(runs, t.runs[:lo]...)
	if r != nil {
		runs = append(runs, r)
	}
	t.runs = append(runs, t.runs[hi:]...)
	if k > 0 {
		// Memtables queued by writers since stay for the background
		// flusher (waiting on compactMu). flushErr is cleared only by a
		// success that consumed frozen memtables.
		t.frozen = t.frozen[k:]
		t.flushErr = nil
		t.flushCond.Broadcast()
	}
	t.mu.Unlock()
	return nil
}

// applyStack drains src through the optional stack into a slice sized
// for size entries — the sources' total, which a combining stack only
// shrinks — so a large flush or compaction does not regrow its output.
func applyStack(src iterator.SKVI, stack func(iterator.SKVI) (iterator.SKVI, error), size int) ([]skv.Entry, error) {
	it := src
	if stack != nil {
		var err error
		it, err = stack(src)
		if err != nil {
			return nil, err
		}
	}
	if err := it.Seek(skv.FullRange()); err != nil {
		return nil, err
	}
	return iterator.AppendAll(make([]skv.Entry, 0, size), it)
}

// Snapshot returns an iterator source over the tablet's current
// contents (active memtable + frozen memtables + all runs), valid
// independently of later writes: the memtable sources carry a
// sequence-number watermark instead of copying entries, so taking a
// snapshot is O(sources) and never blocks writers. Naming families
// constrains the snapshot to them: disk runs load only the matching
// families' block runs, memtable sources filter per entry.
func (t *Tablet) Snapshot(families ...string) iterator.SKVI {
	// Load the active memtable before the frozen list: freeze queues
	// the old memtable before swapping, so at every instant old is in
	// at least one of the two views (duplicates collapse in the merge).
	active := t.active.Load()
	t.mu.Lock()
	sources := make([]iterator.SKVI, 0, len(t.frozen)+len(t.runs)+1)
	sources = active.sources(sources)
	for i := len(t.frozen) - 1; i >= 0; i-- {
		sources = t.frozen[i].mem.sources(sources)
	}
	if len(families) == 0 {
		for i := len(t.runs) - 1; i >= 0; i-- {
			sources = append(sources, t.runs[i].Iter())
		}
	} else {
		for i := len(sources) - 1; i >= 0; i-- {
			sources[i] = iterator.NewColumnFilterIter(sources[i], families...)
		}
		for i := len(t.runs) - 1; i >= 0; i-- {
			sources = append(sources, t.runs[i].IterFamilies(families))
		}
	}
	t.mu.Unlock()
	return iterator.NewDedupMergeIter(sources...)
}

// EntryEstimate returns the approximate number of stored entries
// (pre-compaction duplicates included).
func (t *Tablet) EntryEstimate() int {
	active := t.active.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := active.count()
	for _, f := range t.frozen {
		n += f.mem.count()
	}
	for _, r := range t.runs {
		n += r.Count()
	}
	return n
}

// SplitAt partitions the tablet at row boundary (which must lie strictly
// inside its range), returning the two halves [start, row) and
// [row, end). The receiver must not be used afterwards. The backing
// swaps its state for the two halves' atomically.
func (t *Tablet) SplitAt(row string) (*Tablet, *Tablet, error) {
	// Callers serialise splits against writes; the compaction lock
	// additionally fences out in-flight background flushes and major
	// compactions.
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	// Collect the merged view.
	it := t.Snapshot()
	if err := it.Seek(skv.FullRange()); err != nil {
		return nil, nil, err
	}
	entries, err := iterator.Collect(it)
	if err != nil {
		return nil, nil, err
	}
	cut := sort.Search(len(entries), func(i int) bool {
		return entries[i].K.Row >= row
	})
	leftE, rightE := entries[:cut], entries[cut:]

	lb, rb, lrun, rrun, err := t.backing.Split(row, leftE, rightE)
	if err != nil {
		return nil, nil, err
	}
	half := func(start, end string, b Backing, r Run) *Tablet {
		h := NewDurable(start, end, t.memLimit, b, nil, nil)
		h.flushBytes, h.stats, h.bound, h.minc = t.flushBytes, t.stats, t.bound, t.minc
		if r != nil {
			h.runs = []Run{r}
		}
		return h
	}
	left, right := half(t.StartRow, row, lb, lrun), half(row, t.EndRow, rb, rrun)
	t.retire()
	return left, right, nil
}

// retire marks the tablet split-away: a caller holding a stale pointer
// must not fold it once its halves own the data. Caller holds
// compactMu.
func (t *Tablet) retire() {
	t.mu.Lock()
	t.retired = true
	t.flushCond.Broadcast()
	t.mu.Unlock()
}

// pickMergeGroup chooses the contiguous run group [lo, hi) a merge
// folds, from the oldest-first size profile. It prefers the longest
// window whose sizes lie within ratio of each other (ties broken by the
// smallest total rewrite), so a tier of fresh small runs folds together
// while dissimilar large runs stay untouched; when no two neighbours
// are size-similar it falls back to the cheapest adjacent pair, which
// keeps the run count bounded without rewriting the largest run unless
// it truly is the cheapest option. len(sizes) must be >= 2.
func pickMergeGroup(sizes []int, ratio int) (lo, hi int) {
	bestLo, bestHi, bestTotal := -1, -1, 0
	for i := 0; i < len(sizes); i++ {
		min, max, total := sizes[i], sizes[i], sizes[i]
		for j := i + 1; j < len(sizes); j++ {
			if sizes[j] < min {
				min = sizes[j]
			}
			if sizes[j] > max {
				max = sizes[j]
			}
			total += sizes[j]
			// An empty run is similar to anything.
			if min > 0 && max > ratio*min {
				break
			}
			length := j - i + 1
			if bestLo < 0 || length > bestHi-bestLo ||
				(length == bestHi-bestLo && total < bestTotal) {
				bestLo, bestHi, bestTotal = i, j+1, total
			}
		}
	}
	if bestLo >= 0 {
		return bestLo, bestHi
	}
	// No size-similar neighbours at all: merge the cheapest pair.
	lo = 0
	for i := 1; i+1 < len(sizes); i++ {
		if sizes[i]+sizes[i+1] < sizes[lo]+sizes[lo+1] {
			lo = i
		}
	}
	return lo, lo + 2
}
