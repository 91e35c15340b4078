// Package store manages the on-disk layout of a durable embedded
// cluster: one data directory holding a manifest, per-tablet
// write-ahead logs, and immutable rfiles. The accumulo layer opens a
// Dir, recreates its tables and tablets from the manifest, and hands
// each tablet a *TabletStore, which implements tablet.Backing.
//
// Layout under a data dir:
//
//	MANIFEST          JSON: logical clock, id allocator, and per table
//	                  the splits, iterator settings, and per-tablet
//	                  rfile lists
//	wal/t<ID>-<seq>.wal  WAL segments for tablet <ID>
//	rf/r<ID>.rf          immutable rfiles
//
// The manifest is the commit point for every structural change: it is
// rewritten to a temp file and atomically renamed, so recovery always
// sees either the old or the new layout. Files are created and synced
// before the manifest references them, and deleted only after a
// manifest that no longer references them is durable; any file left
// unreferenced by a crash in between is garbage-collected at Open. WAL
// segments are deliberately outside the manifest — recovery replays
// whatever segments exist for each live tablet id, so a WAL rotation
// never needs a manifest write.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/rfile"
	"graphulo/internal/skv"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
	"graphulo/internal/wal"
)

const (
	manifestName = "MANIFEST"
	walDirName   = "wal"
	rfDirName    = "rf"
)

// manifest is the persisted root of the directory's state.
type manifest struct {
	Version int                       `json:"version"`
	Clock   int64                     `json:"clock"`
	NextID  int64                     `json:"nextID"`
	Tables  map[string]*tableManifest `json:"tables"`
}

type tableManifest struct {
	Splits  []string                      `json:"splits,omitempty"`
	Iters   map[string][]iterator.Setting `json:"iters,omitempty"`
	Tablets []*tabletManifest             `json:"tablets"`
}

type tabletManifest struct {
	ID     int64    `json:"id"`
	Start  string   `json:"start"`
	End    string   `json:"end"`
	RFiles []string `json:"rfiles,omitempty"` // oldest first
}

// check refuses a manifest this package could not have written: a null
// table or tablet entry, or an rfile name other than one rfileName
// makes — a name that is not confined to rf/ in particular.
func (m *manifest) check() error {
	for name, tm := range m.Tables {
		if tm == nil {
			return fmt.Errorf("table %q is null", name)
		}
		for _, tb := range tm.Tablets {
			if tb == nil {
				return fmt.Errorf("table %q has a null tablet", name)
			}
			for _, f := range tb.RFiles {
				var id int64
				if _, err := fmt.Sscanf(f, "r%d.rf", &id); err != nil || rfileName(id) != f {
					return fmt.Errorf("table %q: bad rfile name %q", name, f)
				}
			}
		}
	}
	return nil
}

// Dir is an open durable data directory.
type Dir struct {
	path  string
	opts  Options
	clock func() int64

	// blockCache is shared by every rfile Reader the directory opens.
	blockCache *cache.BlockCache

	// readers tracks the open Reader per live rfile so deletion can
	// mark it dead (stop it feeding the block cache) while in-flight
	// scans finish; removeRFile drops the entry, making the Reader
	// collectable again.
	readersMu sync.Mutex
	readers   map[string]*rfile.Reader

	mu     sync.Mutex
	man    manifest
	stores map[int64]*TabletStore // open tablet stores by tablet id
}

// Options tunes the directory.
type Options struct {
	// NoSync disables per-append WAL fsyncs (benchmarks, bulk loads).
	NoSync bool
	// BlockCacheBytes bounds the shared rfile block cache (0 selects
	// cache.DefaultMaxBytes; negative disables caching).
	BlockCacheBytes int64
	// Stats, when non-nil, is the process counter block the directory's
	// block cache and rfile Readers count into.
	Stats *telemetry.StatSet
	// WALSyncObserver, when set, receives the duration of every WAL
	// fsync issued by the directory's tablet stores.
	WALSyncObserver func(time.Duration)
}

// Open loads (or initialises) the data directory at path and
// garbage-collects files orphaned by a crash between a file write and
// its manifest commit.
func Open(path string, opts Options) (*Dir, error) {
	for _, sub := range []string{path, filepath.Join(path, walDirName), filepath.Join(path, rfDirName)} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, err
		}
	}
	d := &Dir{
		path:    path,
		opts:    opts,
		stores:  map[int64]*TabletStore{},
		readers: map[string]*rfile.Reader{},
		man:     manifest{Version: 1, NextID: 1, Tables: map[string]*tableManifest{}},
	}
	if opts.BlockCacheBytes >= 0 {
		d.blockCache = cache.New(opts.BlockCacheBytes)
		d.blockCache.CountInto(opts.Stats)
	}
	d.clock = func() int64 { return d.man.Clock }
	raw, err := os.ReadFile(filepath.Join(path, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &d.man); err != nil {
			return nil, fmt.Errorf("store: corrupt manifest: %w", err)
		}
		if err := d.man.check(); err != nil {
			return nil, fmt.Errorf("store: corrupt manifest: %w", err)
		}
		if d.man.Tables == nil {
			d.man.Tables = map[string]*tableManifest{}
		}
	case os.IsNotExist(err):
		// Fresh directory.
	default:
		return nil, err
	}
	if err := d.gc(); err != nil {
		return nil, err
	}
	return d, nil
}

// SetClock installs the logical-clock source persisted into every
// manifest write; the cluster layer points it at its timestamp counter.
func (d *Dir) SetClock(fn func() int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.clock = fn
}

// Clock returns the logical clock recorded in the loaded manifest; the
// cluster restores its timestamp counter to at least this value.
func (d *Dir) Clock() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.man.Clock
}

// gc removes rfiles and WAL segments that no manifest entry references.
func (d *Dir) gc() error {
	liveRF := map[string]bool{}
	liveID := map[string]bool{}
	for _, tm := range d.man.Tables {
		for _, tb := range tm.Tablets {
			liveID[tabletIDName(tb.ID)] = true
			for _, f := range tb.RFiles {
				liveRF[f] = true
			}
		}
	}
	rfDir := filepath.Join(d.path, rfDirName)
	des, err := os.ReadDir(rfDir)
	if err != nil {
		return err
	}
	for _, de := range des {
		if !liveRF[de.Name()] {
			if err := os.Remove(filepath.Join(rfDir, de.Name())); err != nil {
				return err
			}
		}
	}
	walDir := filepath.Join(d.path, walDirName)
	des, err = os.ReadDir(walDir)
	if err != nil {
		return err
	}
	for _, de := range des {
		id, _, ok := strings.Cut(de.Name(), "-")
		if !ok || !liveID[id] {
			if err := os.Remove(filepath.Join(walDir, de.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeManifestLocked persists the manifest atomically; caller holds
// d.mu.
func (d *Dir) writeManifestLocked() error {
	d.man.Clock = d.clock()
	raw, err := json.MarshalIndent(&d.man, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.path, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.path, manifestName)); err != nil {
		return err
	}
	return syncDir(d.path)
}

// syncDir fsyncs a directory so renames and file creations are durable.
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

func tabletIDName(id int64) string { return fmt.Sprintf("t%06d", id) }
func rfileName(id int64) string    { return fmt.Sprintf("r%06d.rf", id) }

func (d *Dir) walPath() string { return filepath.Join(d.path, walDirName) }
func (d *Dir) rfPath(name string) string {
	return filepath.Join(d.path, rfDirName, name)
}

// trackReader registers the open Reader for a live rfile.
func (d *Dir) trackReader(name string, rd *rfile.Reader) {
	d.readersMu.Lock()
	d.readers[name] = rd
	d.readersMu.Unlock()
}

// removeRFile deletes an rfile, marking its Reader dead so blocks stop
// occupying (and re-entering) the shared cache while in-flight scans
// drain through the still-open descriptor.
func (d *Dir) removeRFile(name string) {
	d.readersMu.Lock()
	rd := d.readers[name]
	delete(d.readers, name)
	d.readersMu.Unlock()
	if rd != nil {
		rd.MarkDead()
	} else {
		d.blockCache.EvictFile(d.rfPath(name))
	}
	os.Remove(d.rfPath(name))
}

// TableInfo describes a recovered table.
type TableInfo struct {
	Name    string
	Splits  []string
	Iters   map[string][]iterator.Setting
	Tablets []TabletInfo
}

// TabletInfo identifies one recovered tablet.
type TabletInfo struct {
	ID         int64
	Start, End string
}

// Tables returns the manifest's tables, sorted by name, for recovery.
func (d *Dir) Tables() []TableInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []TableInfo
	for name, tm := range d.man.Tables {
		ti := TableInfo{
			Name:   name,
			Splits: append([]string(nil), tm.Splits...),
			Iters:  map[string][]iterator.Setting{},
		}
		for scope, list := range tm.Iters {
			ti.Iters[scope] = append([]iterator.Setting(nil), list...)
		}
		for _, tb := range tm.Tablets {
			ti.Tablets = append(ti.Tablets, TabletInfo{ID: tb.ID, Start: tb.Start, End: tb.End})
		}
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateTable registers a new table with the given splits, iterator
// settings, and tablet ranges, returning one TabletStore per range.
func (d *Dir) CreateTable(name string, splits []string, iters map[string][]iterator.Setting, ranges [][2]string) ([]*TabletStore, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.man.Tables[name]; dup {
		return nil, fmt.Errorf("store: table %q already exists", name)
	}
	tm := &tableManifest{
		Splits: append([]string(nil), splits...),
		Iters:  iters,
	}
	var stores []*TabletStore
	for _, rng := range ranges {
		id := d.man.NextID
		d.man.NextID++
		tb := &tabletManifest{ID: id, Start: rng[0], End: rng[1]}
		tm.Tablets = append(tm.Tablets, tb)
		ts, err := d.openTabletStoreLocked(name, tb)
		if err != nil {
			return nil, err
		}
		stores = append(stores, ts)
	}
	d.man.Tables[name] = tm
	if err := d.writeManifestLocked(); err != nil {
		delete(d.man.Tables, name)
		return nil, err
	}
	return stores, nil
}

// openTabletStoreLocked opens (and registers) the WAL-backed store for
// one tablet record. Caller holds d.mu.
func (d *Dir) openTabletStoreLocked(table string, tb *tabletManifest) (*TabletStore, error) {
	log, err := wal.Open(d.walPath(), tabletIDName(tb.ID), wal.Options{
		NoSync:       d.opts.NoSync,
		SyncObserver: d.opts.WALSyncObserver,
	})
	if err != nil {
		return nil, err
	}
	ts := &TabletStore{dir: d, table: table, rec: tb, log: log}
	d.stores[tb.ID] = ts
	return ts, nil
}

// OpenTablet recovers one tablet: it opens the rfile readers recorded in
// the manifest (oldest first), replays the tablet's WAL segments into
// entries, and opens a fresh WAL segment for new writes. maxTs is the
// largest timestamp seen in the replayed WAL.
func (d *Dir) OpenTablet(table string, info TabletInfo) (ts *TabletStore, runs []tablet.Run, replay []skv.Entry, maxTs int64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	tm, ok := d.man.Tables[table]
	if !ok {
		return nil, nil, nil, 0, fmt.Errorf("store: table %q not in manifest", table)
	}
	var tb *tabletManifest
	for _, cand := range tm.Tablets {
		if cand.ID == info.ID {
			tb = cand
			break
		}
	}
	if tb == nil {
		return nil, nil, nil, 0, fmt.Errorf("store: tablet %d not in table %q", info.ID, table)
	}
	for _, name := range tb.RFiles {
		rd, err := rfile.OpenWithOptions(d.rfPath(name), d.readerOptions())
		if err != nil {
			return nil, nil, nil, 0, err
		}
		d.trackReader(name, rd)
		runs = append(runs, rd)
	}
	// Replay before opening the new active segment so the replayed
	// prefix is exactly what past appends acknowledged.
	replay, maxTs, err = wal.Replay(d.walPath(), tabletIDName(tb.ID))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	ts, err = d.openTabletStoreLocked(table, tb)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return ts, runs, replay, maxTs, nil
}

// SetIters persists a table's per-scope iterator settings.
func (d *Dir) SetIters(name string, iters map[string][]iterator.Setting) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tm, ok := d.man.Tables[name]
	if !ok {
		return fmt.Errorf("store: table %q not in manifest", name)
	}
	tm.Iters = iters
	return d.writeManifestLocked()
}

// DropTable removes a table from the manifest and deletes its files.
func (d *Dir) DropTable(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tm, ok := d.man.Tables[name]
	if !ok {
		return fmt.Errorf("store: table %q not in manifest", name)
	}
	delete(d.man.Tables, name)
	if err := d.writeManifestLocked(); err != nil {
		d.man.Tables[name] = tm
		return err
	}
	// Past the commit point: reclaim files; failures here would be
	// re-collected by gc at next open.
	for _, tb := range tm.Tablets {
		if ts := d.stores[tb.ID]; ts != nil {
			ts.log.Remove()
			delete(d.stores, tb.ID)
		} else {
			w, _ := wal.Open(d.walPath(), tabletIDName(tb.ID), wal.Options{})
			if w != nil {
				w.Remove()
			}
		}
		for _, f := range tb.RFiles {
			d.removeRFile(f)
		}
	}
	return nil
}

// Abandon releases the directory's descriptors as a process exit
// would: every open WAL is closed unsynced, dropping what it still
// buffers, every live rfile's Reader is closed, and no manifest is
// written. Crash tests use it in place of Close; the Dir must not be
// used afterwards.
func (d *Dir) Abandon() {
	d.mu.Lock()
	for id, ts := range d.stores {
		ts.log.Abandon()
		delete(d.stores, id)
	}
	d.mu.Unlock()
	d.readersMu.Lock()
	for name, rd := range d.readers {
		rd.Close()
		delete(d.readers, name)
	}
	d.readersMu.Unlock()
}

// Close persists a final manifest (capturing the logical clock) and
// closes every open WAL.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var firstErr error
	for id, ts := range d.stores {
		if err := ts.log.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(d.stores, id)
	}
	if err := d.writeManifestLocked(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// readerOptions wires a new rfile Reader into the directory's shared
// block cache and counter block.
func (d *Dir) readerOptions() rfile.ReaderOptions {
	return rfile.ReaderOptions{Cache: d.blockCache, Stats: d.opts.Stats}
}

// newRFileLocked writes entries to a fresh rfile and opens a reader on
// it. Caller holds d.mu. Empty entries yield ("", nil, nil).
func (d *Dir) newRFileLocked(entries []skv.Entry) (string, *rfile.Reader, error) {
	if len(entries) == 0 {
		return "", nil, nil
	}
	name := rfileName(d.man.NextID)
	d.man.NextID++
	rd, err := d.writeRFile(name, entries)
	return name, rd, err
}

// newRFile is newRFileLocked holding d.mu only to reserve the name, so
// the rfiles of different tablets are written in parallel. No manifest
// references the file until a Replace commits it; a crash before that
// leaves it to gc.
func (d *Dir) newRFile(entries []skv.Entry) (*rfile.Reader, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	d.mu.Lock()
	name := rfileName(d.man.NextID)
	d.man.NextID++
	d.mu.Unlock()
	return d.writeRFile(name, entries)
}

// writeRFile writes entries to the rfile name and opens a reader on it.
func (d *Dir) writeRFile(name string, entries []skv.Entry) (*rfile.Reader, error) {
	path := d.rfPath(name)
	if err := rfile.WriteAll(path, entries, rfile.WriterOptions{}); err != nil {
		return nil, err
	}
	// Sync the rf/ directory entry before the manifest can reference
	// the file, so a crash cannot leave a manifest pointing at a file
	// whose dirent was lost.
	if err := syncDir(filepath.Join(d.path, rfDirName)); err != nil {
		return nil, err
	}
	rd, err := rfile.OpenWithOptions(path, d.readerOptions())
	if err != nil {
		return nil, err
	}
	d.trackReader(name, rd)
	return rd, nil
}

// --- TabletStore ---

// TabletStore is one tablet's slice of the data directory; it
// implements tablet.Backing.
type TabletStore struct {
	dir   *Dir
	table string
	rec   *tabletManifest // manifest fields guarded by dir.mu
	log   *wal.Log
}

var _ tablet.Backing = (*TabletStore)(nil)

// LogAsync implements tablet.Backing.
func (ts *TabletStore) LogAsync(batch []skv.Entry) (uint64, error) {
	return ts.log.AppendAsync(batch)
}

// WaitDurable implements tablet.Backing.
func (ts *TabletStore) WaitDurable(seq uint64) error { return ts.log.WaitDurable(seq) }

// Rotate implements tablet.Backing.
func (ts *TabletStore) Rotate() (uint64, error) { return ts.log.Rotate() }

// WriteRun implements tablet.Backing: the rfile is written outside the
// directory lock and is referenced by no manifest until Replace commits
// it.
func (ts *TabletStore) WriteRun(entries []skv.Entry) (tablet.Run, error) {
	rd, err := ts.dir.newRFile(entries)
	return asRun(rd), err
}

// Replace implements tablet.Backing: commit the new file list in the
// manifest, delete the replaced files, then drop the WAL segments
// through mark. A crash before the manifest commit leaves the old files
// and the WAL intact (the new rfile is GC'd); a crash after it merely
// replays entries the rfile already holds, which the memtable-first
// merge order dedupes.
func (ts *TabletStore) Replace(run tablet.Run, lo, hi int, mark uint64) error {
	return ts.replace(runName(run), lo, hi, mark)
}

// DropRun implements tablet.Backing: it deletes an uncommitted rfile.
func (ts *TabletStore) DropRun(run tablet.Run) {
	if name := runName(run); name != "" {
		ts.dir.removeRFile(name)
	}
}

// runName is the rfile name of a run WriteRun returned ("" for nil).
func runName(run tablet.Run) string {
	if run == nil {
		return ""
	}
	return filepath.Base(run.(*rfile.Reader).Path())
}

// Flush is Replace's append case, returning the new rfile's reader
// (nil with no entries).
func (ts *TabletStore) Flush(entries []skv.Entry, mark uint64) (*rfile.Reader, error) {
	rd, err := ts.dir.newRFile(entries)
	if err != nil {
		return nil, err
	}
	ts.dir.mu.Lock()
	n := len(ts.rec.RFiles)
	ts.dir.mu.Unlock()
	if err := ts.replace(runName(asRun(rd)), n, n, mark); err != nil {
		ts.DropRun(asRun(rd))
		return nil, err
	}
	return rd, nil
}

func (ts *TabletStore) replace(name string, lo, hi int, mark uint64) error {
	d := ts.dir
	d.mu.Lock()
	old := ts.rec.RFiles
	if lo < 0 || hi > len(old) || lo > hi {
		d.mu.Unlock()
		return fmt.Errorf("store: replace group [%d,%d) out of range (%d rfiles)", lo, hi, len(old))
	}
	if name != "" || hi > lo {
		files := make([]string, 0, len(old)-(hi-lo)+1)
		files = append(files, old[:lo]...)
		if name != "" {
			files = append(files, name)
		}
		ts.rec.RFiles = append(files, old[hi:]...)
		if err := d.writeManifestLocked(); err != nil {
			ts.rec.RFiles = old
			d.mu.Unlock()
			return err
		}
		// Past the commit point: reclaim the replaced files.
		for _, f := range old[lo:hi] {
			d.removeRFile(f)
		}
	}
	d.mu.Unlock()
	// Best effort: the change is durable once the manifest commits. A
	// segment that survives a failed delete is replayed after a crash,
	// which the memtable-first merge order dedupes harmlessly. Mark 0 (a
	// run merge) covers no segment, so it skips the directory listing.
	if mark > 0 {
		ts.log.DropThrough(mark)
	}
	return nil
}

// asRun returns rd as a tablet.Run, and a nil reader as a nil Run: a
// nil *rfile.Reader stored in the interface would be a non-nil Run.
func asRun(rd *rfile.Reader) tablet.Run {
	if rd == nil {
		return nil
	}
	return rd
}

// Split implements tablet.Backing: both halves' rfiles are written and
// committed in a single manifest swap before any old file is deleted.
func (ts *TabletStore) Split(row string, left, right []skv.Entry) (tablet.Backing, tablet.Backing, tablet.Run, tablet.Run, error) {
	d := ts.dir
	d.mu.Lock()
	tm, ok := d.man.Tables[ts.table]
	if !ok {
		d.mu.Unlock()
		return nil, nil, nil, nil, fmt.Errorf("store: table %q not in manifest", ts.table)
	}
	pos := -1
	for i, tb := range tm.Tablets {
		if tb == ts.rec {
			pos = i
			break
		}
	}
	if pos < 0 {
		d.mu.Unlock()
		return nil, nil, nil, nil, fmt.Errorf("store: splitting unknown tablet %d", ts.rec.ID)
	}
	lname, lrd, err := d.newRFileLocked(left)
	if err != nil {
		d.mu.Unlock()
		return nil, nil, nil, nil, err
	}
	rname, rrd, err := d.newRFileLocked(right)
	if err != nil {
		d.mu.Unlock()
		return nil, nil, nil, nil, err
	}
	lrec := &tabletManifest{ID: d.man.NextID, Start: ts.rec.Start, End: row}
	d.man.NextID++
	rrec := &tabletManifest{ID: d.man.NextID, Start: row, End: ts.rec.End}
	d.man.NextID++
	if lname != "" {
		lrec.RFiles = []string{lname}
	}
	if rname != "" {
		rrec.RFiles = []string{rname}
	}
	oldTablets := tm.Tablets
	oldSplits := tm.Splits
	tablets := make([]*tabletManifest, 0, len(oldTablets)+1)
	tablets = append(tablets, oldTablets[:pos]...)
	tablets = append(tablets, lrec, rrec)
	tablets = append(tablets, oldTablets[pos+1:]...)
	tm.Tablets = tablets
	idx := sort.SearchStrings(oldSplits, row)
	splits := make([]string, 0, len(oldSplits)+1)
	splits = append(splits, oldSplits[:idx]...)
	splits = append(splits, row)
	splits = append(splits, oldSplits[idx:]...)
	tm.Splits = splits
	if err := d.writeManifestLocked(); err != nil {
		tm.Tablets, tm.Splits = oldTablets, oldSplits
		d.mu.Unlock()
		return nil, nil, nil, nil, err
	}
	lts, err := d.openTabletStoreLocked(ts.table, lrec)
	if err != nil {
		d.mu.Unlock()
		return nil, nil, nil, nil, err
	}
	rts, err := d.openTabletStoreLocked(ts.table, rrec)
	if err != nil {
		d.mu.Unlock()
		return nil, nil, nil, nil, err
	}
	// Past the commit point: reclaim the replaced tablet's files.
	oldRFiles := ts.rec.RFiles
	delete(d.stores, ts.rec.ID)
	d.mu.Unlock()
	ts.log.Remove()
	for _, f := range oldRFiles {
		d.removeRFile(f)
	}
	return lts, rts, asRun(lrd), asRun(rrd), nil
}
