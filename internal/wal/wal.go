// Package wal implements a segmented append-only write-ahead log, the
// durability floor under a tablet's memtable. Every write batch is
// appended as one CRC-guarded record before it is acknowledged; after a
// crash, Replay reconstructs the unflushed batches up to the last record
// whose checksum verifies, discarding a torn tail cleanly.
//
// Each tablet owns one log identified by a stable id. A log is a series
// of numbered segment files "<id>-<seq>.wal"; appends go to the highest
// segment, and minor compaction rotates to a fresh segment so that the
// segments covering the flushed memtable can be deleted. Concurrent
// appenders share fsyncs through group commit: whichever appender grabs
// the syncer role flushes every record written so far, and the rest
// simply wait for their record's sequence number to become durable.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"graphulo/internal/skv"
)

// castagnoli is the CRC-32C polynomial table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordHeaderLen is the fixed per-record prefix: u32 payload length and
// u32 CRC-32C of the payload, both little-endian.
const recordHeaderLen = 8

// Options tunes a log.
type Options struct {
	// NoSync skips the fsync on append; records still hit the OS page
	// cache. Meant for benchmarks and bulk loads that call Sync at
	// checkpoints.
	NoSync bool
	// MaxSegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB). Bounding segment size bounds single-file
	// replay cost and lets flushed prefixes be reclaimed sooner.
	MaxSegmentBytes int64
	// SyncObserver, when set, receives the wall-clock duration of every
	// fsync the log issues (group commits, rotations, explicit Syncs).
	SyncObserver func(time.Duration)
	// MaxBatchBytes bounds the in-memory record buffer that group
	// commit coalesces (default 1 MiB). Appends land in the buffer with
	// no syscall; the elected syncer drains it with one write plus one
	// fsync. While a sync is in flight and the buffer is full, further
	// appenders wait (overflow backpressure); with no sync in flight an
	// overflowing appender spills the buffer to the OS instead, so the
	// buffer never grows past the bound.
	MaxBatchBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	if o.MaxBatchBytes <= 0 {
		o.MaxBatchBytes = 1 << 20
	}
	return o
}

// Log is one tablet's write-ahead log.
type Log struct {
	dir  string
	id   string
	opts Options

	mu         sync.Mutex
	cond       *sync.Cond
	f          *os.File
	activeSeq  uint64
	oldestLive uint64 // lowest segment seq not yet dropped
	segBytes   int64
	pending    []byte // encoded records accepted but not yet written to the file
	appendSeq  uint64 // records accepted (buffered or written to the OS)
	syncSeq    uint64 // records known durable
	syncing    bool   // a goroutine currently holds the syncer role
	closed     bool
}

func segmentName(id string, seq uint64) string {
	return fmt.Sprintf("%s-%012d.wal", id, seq)
}

// segments lists a log id's segment files in dir, sorted by sequence.
func segments(dir, id string) ([]uint64, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	prefix := id + "-"
	var seqs []uint64
	for _, de := range names {
		name := de.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".wal") {
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".wal")
		seq, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue // foreign file; GC elsewhere
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open creates the log's next active segment, numbered after any
// existing segments. Existing segments are never appended to — a torn
// tail from a crash must stay where Replay can cleanly truncate it.
func Open(dir, id string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := segments(dir, id)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	oldest := next
	if len(seqs) > 0 {
		oldest = seqs[0]
	}
	l := &Log{dir: dir, id: id, opts: opts.withDefaults(), oldestLive: oldest}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment creates segment seq as the active file and syncs the
// directory so the new entry survives a crash. Caller holds no lock
// (Open) or l.mu (rotation).
func (l *Log) openSegment(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.id, seq)),
		os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.activeSeq = seq
	l.segBytes = 0
	return nil
}

// syncDir fsyncs a directory, making file creations in it durable.
func syncDir(path string) error {
	df, err := os.Open(path)
	if err != nil {
		return err
	}
	err = df.Sync()
	cerr := df.Close()
	if err != nil {
		return err
	}
	return cerr
}

// syncFile fsyncs f, reporting the elapsed time to the configured
// observer. The observer is immutable after Open, so this is safe with
// or without l.mu held.
func (l *Log) syncFile(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	if obs := l.opts.SyncObserver; obs != nil {
		obs(time.Since(start))
	}
	return err
}

// Append durably logs one write batch. It returns once the record is on
// stable storage (or written to the OS under NoSync). Group commit: the
// fsync that covers this record may be issued by a concurrent appender.
func (l *Log) Append(batch []skv.Entry) error {
	seq, err := l.AppendAsync(batch)
	if err != nil {
		return err
	}
	return l.WaitDurable(seq)
}

// AppendAsync accepts one record without waiting for it to be durable,
// returning its sequence number for WaitDurable. The split lets a
// caller order the append against its own in-memory state under its own
// lock, then wait for the fsync outside it — so concurrent writers
// still share fsyncs through group commit.
//
// Records are coalesced in an in-memory buffer: the append itself makes
// no syscall, and the syncer elected in commitLocked drains every
// buffered record with a single write before its fsync, so N concurrent
// writers share one buffer copy as well as one fsync. Under NoSync
// records are written straight through to the OS instead.
func (l *Log) AppendAsync(batch []skv.Entry) (uint64, error) {
	payload := skv.EncodeBatch(batch)
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append to closed log %s", l.id)
	}
	if l.segBytes >= l.opts.MaxSegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	recLen := int64(recordHeaderLen + len(payload))
	if l.opts.NoSync {
		if _, err := l.f.Write(hdr[:]); err != nil {
			return 0, err
		}
		if _, err := l.f.Write(payload); err != nil {
			return 0, err
		}
		l.segBytes += recLen
		l.appendSeq++
		l.syncSeq = l.appendSeq
		return l.appendSeq, nil
	}
	// Overflow backpressure: while a sync is in flight and this record
	// would push the coalescing buffer past its bound, wait for the
	// syncer to drain it. The wait also keeps the next fsync's batch
	// bounded, so one slow appender cannot make every waiter's commit
	// arbitrarily large.
	for l.syncing && int64(len(l.pending))+recLen > l.opts.MaxBatchBytes && len(l.pending) > 0 {
		l.cond.Wait()
		if l.closed {
			return 0, fmt.Errorf("wal: append to closed log %s", l.id)
		}
	}
	// No syncer to wait on: spill the full buffer to the OS ourselves
	// (no fsync) so the buffer never grows past its bound.
	if int64(len(l.pending))+recLen > l.opts.MaxBatchBytes && len(l.pending) > 0 {
		if err := l.writePendingLocked(); err != nil {
			return 0, err
		}
	}
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	l.segBytes += recLen
	l.appendSeq++
	return l.appendSeq, nil
}

// writePendingLocked writes the coalescing buffer through to the active
// segment without an fsync. Caller holds l.mu; waits out an in-flight
// syncer first so exactly one goroutine writes to the file at a time
// (interleaving appends would break replay's prefix ordering).
func (l *Log) writePendingLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if len(l.pending) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.pending); err != nil {
		return err
	}
	l.pending = l.pending[:0]
	return nil
}

// WaitDurable blocks until record seq is on stable storage (a no-op
// under NoSync, and for records already covered by a rotation's sync).
func (l *Log) WaitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.NoSync {
		return nil
	}
	return l.commitLocked(seq)
}

// commitLocked blocks until record seq mine is durable, electing at most
// one goroutine at a time to sync on behalf of every pending appender.
// The syncer steals the whole coalescing buffer and drains it with one
// write plus one fsync outside the lock, so every record buffered by
// then shares the same two syscalls. Called and returns with l.mu held.
func (l *Log) commitLocked(mine uint64) error {
	for l.syncSeq < mine {
		if l.syncing {
			l.cond.Wait()
			continue
		}
		l.syncing = true
		// Commit window: yield once, lock released, before stealing the
		// buffer. Committers that are already runnable get to land
		// their records in it and ride this fsync instead of electing
		// their own; everyone else (appends past the buffer bound,
		// rotation, Close, later committers) waits on l.syncing, so the
		// invariants are exactly those of the fsync below. With nothing
		// else runnable the yield costs one scheduler call.
		l.mu.Unlock()
		runtime.Gosched()
		l.mu.Lock()
		f, target := l.f, l.appendSeq
		buf := l.pending
		l.pending = nil
		l.mu.Unlock()
		var n int
		var err error
		if len(buf) > 0 {
			n, err = f.Write(buf)
		}
		if err == nil {
			err = l.syncFile(f)
		}
		l.mu.Lock()
		l.syncing = false
		if err == nil && l.syncSeq < target {
			l.syncSeq = target
		} else if err != nil && n < len(buf) {
			// Requeue the unwritten tail so a later syncer retries it —
			// otherwise waiters whose records rode in buf would observe
			// syncSeq advance without their bytes ever reaching the file.
			l.pending = append(buf[n:], l.pending...)
		}
		l.cond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked syncs and closes the active segment and opens the next
// one. Caller holds l.mu; waits out any in-flight fsync and drains the
// coalescing buffer first, so every accepted record lands in the
// segment the returned mark covers.
func (l *Log) rotateLocked() error {
	if err := l.writePendingLocked(); err != nil {
		return err
	}
	for l.syncing {
		l.cond.Wait()
	}
	if !l.opts.NoSync {
		if err := l.syncFile(l.f); err != nil {
			return err
		}
	}
	l.syncSeq = l.appendSeq
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.activeSeq + 1)
}

// Rotate closes the active segment and starts a new one, returning a
// mark: every record appended so far lives in segments numbered <= mark,
// so once those records are flushed elsewhere (an rfile), the caller may
// DropThrough(mark). Call under the same lock that snapshots the
// memtable, so no write lands between snapshot and rotation. When the
// log holds no records at all — empty active segment and nothing older
// — Rotate is a no-op returning a mark below every live segment, so
// repeated flushes of an idle tablet don't churn segment files.
func (l *Log) Rotate() (mark uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: rotate on closed log %s", l.id)
	}
	if l.segBytes == 0 && l.oldestLive == l.activeSeq {
		return l.activeSeq - 1, nil
	}
	mark = l.activeSeq
	return mark, l.rotateLocked()
}

// DropThrough deletes every segment numbered <= mark. Safe to call after
// the records in those segments have been persisted to an rfile.
func (l *Log) DropThrough(mark uint64) error {
	seqs, err := segments(l.dir, l.id)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		if seq > mark {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, segmentName(l.id, seq))); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	l.mu.Lock()
	if mark+1 > l.oldestLive {
		l.oldestLive = mark + 1
	}
	if l.oldestLive > l.activeSeq {
		l.oldestLive = l.activeSeq
	}
	l.mu.Unlock()
	return nil
}

// Sync forces an fsync of the active segment (used with NoSync),
// draining any coalesced records first.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.writePendingLocked(); err != nil {
		return err
	}
	err := l.syncFile(l.f)
	if err == nil {
		l.syncSeq = l.appendSeq
	}
	return err
}

// Abandon closes the active segment as a process exit would: records
// still buffered are dropped and nothing is synced. Crash tests use it
// to drop a log without leaking its descriptor.
func (l *Log) Abandon() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return
	}
	l.closed = true
	l.pending = nil
	l.cond.Broadcast()
	l.f.Close()
}

// Close syncs and closes the active segment. The segments stay on disk
// for Replay.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if err := l.writePendingLocked(); err != nil {
		l.closed = true
		l.cond.Broadcast()
		l.f.Close()
		return err
	}
	l.closed = true
	l.cond.Broadcast() // wake appenders stalled on overflow backpressure
	if err := l.syncFile(l.f); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

// Remove closes the log and deletes every one of its segments — the end
// of the tablet (table deletion or split).
func (l *Log) Remove() error {
	if err := l.Close(); err != nil {
		return err
	}
	return l.DropThrough(^uint64(0))
}

// Replay reads a log id's segments in order and returns the logged
// entries. Recovery is prefix-consistent: at the first record whose
// length, checksum, or payload fails to verify — a torn tail from a
// crash mid-append — replay stops cleanly and everything before it is
// returned. maxTs is the largest entry timestamp seen, for restoring
// the logical clock.
func Replay(dir, id string) (entries []skv.Entry, maxTs int64, err error) {
	seqs, err := segments(dir, id)
	if err != nil {
		return nil, 0, err
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(id, seq)))
		if err != nil {
			return nil, 0, err
		}
		for len(data) > 0 {
			if len(data) < recordHeaderLen {
				return entries, maxTs, nil // torn header
			}
			n := binary.LittleEndian.Uint32(data[0:])
			want := binary.LittleEndian.Uint32(data[4:])
			rest := data[recordHeaderLen:]
			if uint64(len(rest)) < uint64(n) {
				return entries, maxTs, nil // torn payload
			}
			payload := rest[:n]
			if crc32.Checksum(payload, castagnoli) != want {
				return entries, maxTs, nil // corrupt record: stop at last valid prefix
			}
			batch, derr := skv.DecodeBatch(payload)
			if derr != nil {
				return entries, maxTs, nil
			}
			for _, e := range batch {
				if e.K.Ts > maxTs {
					maxTs = e.K.Ts
				}
			}
			entries = append(entries, batch...)
			data = rest[n:]
		}
	}
	return entries, maxTs, nil
}
