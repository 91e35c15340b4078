// Package rfile implements the on-disk immutable sorted key-value file
// — the analog of an Accumulo RFile — that minor and major compaction
// write and scans read. A file is a sequence of data blocks holding
// wire-encoded entries, followed by an index region recording each data
// block's first key, offset, length, entry count, and CRC-32C, plus two
// bloom filters and a column-family directory, and a fixed-size trailer
// locating the index. The reader keeps only the index, blooms, and
// directory in memory and serves seekable SKVI iterators. There is one
// on-disk format, version 4: any other trailer version fails Open with
// ErrUnsupportedVersion.
//
// The read path is built for repeated scans, which dominate the kernel
// workloads (TwoTableIterator remote seeks, degree reads, BFS rounds
// re-visiting adjacency rows):
//
//   - Block cache. A Reader opened with a shared cache.BlockCache
//     (OpenWithOptions) consults it before touching disk, so each block
//     is read, CRC-verified, and validated once while resident; repeat
//     scans read the parsed block (skv.Block) straight from memory.
//     The cache holds a block's bytes, not its entries: an iterator
//     cuts each entry from them when it reaches it, so an exact-row
//     seek reads about one row of a block, not all of it (a miss still
//     validates the whole block once, but builds no entries). Closing a
//     Reader evicts its blocks, so files replaced by major compaction
//     stop occupying cache capacity.
//   - Bloom filters. Finish writes a bloom filter over the file's
//     distinct rows and a second filter over distinct (row,
//     column-qualifier) pairs, both at DefaultBloomBitsPerKey. A seek
//     confined to a single row —
//     exact-row BFS expansions, point lookups — probes the row filter
//     first and skips the file entirely on a negative; a seek confined
//     to a single cell (skv.ExactCell: one row, family, and qualifier)
//     additionally probes the pair filter, pruning block reads for
//     column point lookups whose row exists but whose column does not.
//     Negatives are counted in ReaderOptions.Stats.
//   - Locality groups. The writer partitions entries by column family
//     into per-family block runs — BigTable-style locality groups — and
//     a family directory in the index maps each family to its
//     contiguous block range. A seek constrained to a family set
//     (Reader.IterFamilies) touches only the matching runs' blocks;
//     blocks in other families' runs are skipped without a load and
//     counted as telemetry.LocalityBlocksSkipped. Unconstrained scans
//     merge the family runs back into global key order.
//
// Every block checksum is verified, and every entry validated, on
// (disk) load; cache hits skip both along with the read.
//
// Layout (version 4):
//
//	[data block]...[index][trailer]
//	data blocks are grouped into per-family runs, families in
//	        ascending name order; within a run, blocks ascend in key
//	        order
//	index:   uvarint nblocks, then per block
//	         (firstKey as a valueless entry, uvarint off, len, count, u32 crc),
//	         then uvarint total entry count,
//	         then row bloom: uvarint k, uvarint nbytes, bits
//	         then (row,colQ) bloom, same encoding (k and nbytes > 0)
//	         then family directory: uvarint nfamilies, per family
//	         (uvarint namelen, name, uvarint lo, uvarint hi) mapping the
//	         family to blocks [lo, hi); names strictly ascend and the
//	         runs tile [0, nblocks) exactly
//	trailer: u64 indexOff | u32 indexLen | u32 indexCRC |
//	         u32 version | u32 magic ("GRF1"), little-endian
package rfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

const (
	magic   = 0x31465247 // "GRF1" little-endian
	version = 4
	// trailerLen is the fixed byte length of the file trailer.
	trailerLen = 8 + 4 + 4 + 4 + 4
	// DefaultBlockSize is the uncompressed data-block size target.
	DefaultBlockSize = 32 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrUnsupportedVersion is wrapped by the Open error for a file whose
// trailer names any format version other than the one this reader
// speaks.
var ErrUnsupportedVersion = errors.New("unsupported rfile version")

// blockMeta is one index entry describing a data block.
type blockMeta struct {
	firstKey skv.Key
	off      uint64
	len      uint64
	count    int
	crc      uint32
}

// famRun is one family directory entry: the family's contiguous block
// range [lo, hi) in the file's block list.
type famRun struct {
	name   string
	lo, hi int
}

// --- Writer ---

// WriterOptions tunes a new rfile.
type WriterOptions struct {
	// BlockSize is the uncompressed data-block size target
	// (<= 0 selects DefaultBlockSize).
	BlockSize int
}

// pendingBlock is one sealed data block awaiting Finish, which lays the
// per-family runs out contiguously.
type pendingBlock struct {
	firstKey skv.Key
	data     []byte
	count    int
}

// writerGroup accumulates one column family's blocks. Input arrives in
// global (row, colF, colQ) order, so each family's subsequence is
// itself sorted — the group just collects it.
type writerGroup struct {
	buf       []byte // current block under construction
	bufCount  int
	firstKey  skv.Key
	haveFirst bool
	pending   []pendingBlock
}

// seal finishes the block under construction, if any.
func (g *writerGroup) seal() {
	if g.bufCount == 0 {
		return
	}
	g.pending = append(g.pending, pendingBlock{firstKey: g.firstKey, data: g.buf, count: g.bufCount})
	g.buf = nil
	g.bufCount = 0
	g.haveFirst = false
}

// Writer streams sorted entries into a new rfile, partitioning them by
// column family into locality-group block runs. Sealed blocks are held
// in memory until Finish lays the runs out contiguously; callers hand
// the writer compaction-sized entry sets, which they already hold in
// memory anyway.
type Writer struct {
	f          *os.File
	blockSize  int
	groups     map[string]*writerGroup
	lastKey    skv.Key
	haveLast   bool
	count      int
	rowHashes  []uint64 // one hash per distinct row, for the row bloom
	pairHashes []uint64 // one hash per (row, colQ) change, for the column bloom
}

// Create opens path for writing.
func Create(path string, opts WriterOptions) (*Writer, error) {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, blockSize: opts.BlockSize, groups: map[string]*writerGroup{}}, nil
}

// Append adds the next entry, which must not sort before its
// predecessor.
func (w *Writer) Append(e skv.Entry) error {
	if w.haveLast && skv.Compare(e.K, w.lastKey) < 0 {
		return fmt.Errorf("rfile: out-of-order append: %v after %v", e.K, w.lastKey)
	}
	if !w.haveLast || e.K.Row != w.lastKey.Row {
		// Sorted input groups rows, so a row change means a new
		// distinct row.
		w.rowHashes = append(w.rowHashes, bloomHash(e.K.Row))
	}
	if !w.haveLast || e.K.Row != w.lastKey.Row || e.K.ColQ != w.lastKey.ColQ {
		// Sort order is (row, colF, colQ), so the same (row, colQ) pair
		// can recur across families; the duplicate hashes only set the
		// same bits again.
		w.pairHashes = append(w.pairHashes, bloomHashPair(e.K.Row, e.K.ColQ))
	}
	w.lastKey, w.haveLast = e.K, true
	g := w.groups[e.K.ColF]
	if g == nil {
		g = &writerGroup{}
		w.groups[e.K.ColF] = g
	}
	if !g.haveFirst {
		g.firstKey, g.haveFirst = e.K, true
	}
	g.buf = skv.EncodeEntry(g.buf, e)
	g.bufCount++
	w.count++
	if len(g.buf) >= w.blockSize {
		g.seal()
	}
	return nil
}

// Finish lays the family block runs out (families in ascending name
// order), writes index and trailer, and fsyncs. The Writer is unusable
// afterwards.
func (w *Writer) Finish() error {
	families := make([]string, 0, len(w.groups))
	for name := range w.groups {
		families = append(families, name)
	}
	sort.Strings(families)
	var blocks []blockMeta
	var runs []famRun
	var off uint64
	for _, name := range families {
		g := w.groups[name]
		g.seal()
		lo := len(blocks)
		for _, pb := range g.pending {
			if _, err := w.f.Write(pb.data); err != nil {
				w.f.Close()
				return err
			}
			blocks = append(blocks, blockMeta{
				firstKey: pb.firstKey,
				off:      off,
				len:      uint64(len(pb.data)),
				count:    pb.count,
				crc:      crc32.Checksum(pb.data, castagnoli),
			})
			off += uint64(len(pb.data))
		}
		runs = append(runs, famRun{name: name, lo: lo, hi: len(blocks)})
	}
	index := appendBlockIndex(nil, blocks, w.count)
	index = appendBloom(index, buildBloom(w.rowHashes))
	index = appendBloom(index, buildBloom(w.pairHashes))
	index = appendFamilyDir(index, runs)
	if _, err := w.f.Write(index); err != nil {
		w.f.Close()
		return err
	}
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:], off)
	binary.LittleEndian.PutUint32(tr[8:], uint32(len(index)))
	binary.LittleEndian.PutUint32(tr[12:], crc32.Checksum(index, castagnoli))
	binary.LittleEndian.PutUint32(tr[16:], version)
	binary.LittleEndian.PutUint32(tr[20:], magic)
	if _, err := w.f.Write(tr[:]); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// appendBlockIndex serialises the block list and the file's total
// entry count, the index's first section.
func appendBlockIndex(buf []byte, blocks []blockMeta, count int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(blocks)))
	for _, b := range blocks {
		buf = skv.EncodeEntry(buf, skv.Entry{K: b.firstKey})
		buf = binary.AppendUvarint(buf, b.off)
		buf = binary.AppendUvarint(buf, b.len)
		buf = binary.AppendUvarint(buf, uint64(b.count))
		buf = binary.LittleEndian.AppendUint32(buf, b.crc)
	}
	return binary.AppendUvarint(buf, uint64(count))
}

// appendFamilyDir serialises the family directory onto the index blob.
func appendFamilyDir(buf []byte, runs []famRun) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for _, fr := range runs {
		buf = skv.AppendString(buf, fr.name)
		buf = binary.AppendUvarint(buf, uint64(fr.lo))
		buf = binary.AppendUvarint(buf, uint64(fr.hi))
	}
	return buf
}

// Abort discards a partially-written file.
func (w *Writer) Abort() {
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
}

// WriteAll streams a sorted entry slice into path in one call.
func WriteAll(path string, entries []skv.Entry, opts WriterOptions) error {
	w, err := Create(path, opts)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := w.Append(e); err != nil {
			w.Abort()
			return err
		}
	}
	return w.Finish()
}

// --- Reader ---

// ReaderOptions wires a Reader into the shared read-path subsystem.
type ReaderOptions struct {
	// Cache, when non-nil, is consulted before every disk block load
	// and fed every block loaded. It is shared across Readers.
	Cache *cache.BlockCache
	// Stats, when non-nil, receives this Reader's bloom-negative and
	// locality-skip counts (telemetry.BloomNegatives, ColQBloomNegatives,
	// LocalityBlocksSkipped). It is shared across Readers.
	Stats *telemetry.StatSet
}

// Reader serves seekable iterators over one rfile. It keeps only the
// index, bloom filters, and family directory in memory; data blocks are
// served from the shared block cache when present, else read with pread
// and CRC-verified on load, so one Reader may back any number of
// concurrent Iters.
type Reader struct {
	f         *os.File
	path      string
	blocks    []blockMeta
	count     int
	bloom     bloomFilter // over distinct rows
	colqBloom bloomFilter // over distinct (row, colQ) pairs
	families  []famRun    // locality-group directory; tiles blocks
	cache     *cache.BlockCache
	stats     *telemetry.StatSet

	// dead marks a Reader whose file has been deleted (major
	// compaction, table drop): in-flight Iters keep reading through the
	// open descriptor, but their blocks must no longer be fed to the
	// shared cache — nothing will reference them again.
	dead atomic.Bool

	closeOnce sync.Once
	closeErr  error
}

// Open maps an rfile for reading with no cache or stats wiring; see
// OpenWithOptions.
func Open(path string) (*Reader, error) {
	return OpenWithOptions(path, ReaderOptions{})
}

// OpenWithOptions maps an rfile for reading, verifying trailer and
// index. The returned Reader carries a finalizer, so a Reader displaced
// by a major compaction keeps serving in-flight scans and releases its
// descriptor on collection; explicit Close is still preferred where
// lifetime is known.
func OpenWithOptions(path string, opts ReaderOptions) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < trailerLen {
		f.Close()
		return nil, fmt.Errorf("rfile: %s: too short (%d bytes)", path, st.Size())
	}
	var tr [trailerLen]byte
	if _, err := f.ReadAt(tr[:], st.Size()-trailerLen); err != nil {
		f.Close()
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(tr[20:]); got != magic {
		f.Close()
		return nil, fmt.Errorf("rfile: %s: bad magic %#x", path, got)
	}
	if v := binary.LittleEndian.Uint32(tr[16:]); v != version {
		f.Close()
		return nil, fmt.Errorf("rfile: %s: %w %d (want %d)", path, ErrUnsupportedVersion, v, version)
	}
	indexOff := binary.LittleEndian.Uint64(tr[0:])
	indexLen := binary.LittleEndian.Uint32(tr[8:])
	if int64(indexOff)+int64(indexLen)+trailerLen != st.Size() {
		return nil, closeWith(f, fmt.Errorf("rfile: %s: index bounds corrupt", path))
	}
	index := make([]byte, indexLen)
	if _, err := f.ReadAt(index, int64(indexOff)); err != nil {
		f.Close()
		return nil, err
	}
	if crc32.Checksum(index, castagnoli) != binary.LittleEndian.Uint32(tr[12:]) {
		return nil, closeWith(f, fmt.Errorf("rfile: %s: index checksum mismatch", path))
	}
	r := &Reader{f: f, path: path, cache: opts.Cache, stats: opts.Stats}
	if err := r.parseIndex(index, indexOff); err != nil {
		f.Close()
		return nil, err
	}
	runtime.SetFinalizer(r, func(r *Reader) { r.Close() })
	return r, nil
}

func closeWith(f *os.File, err error) error {
	f.Close()
	return err
}

// parseIndex decodes the index region. dataLen bounds the data region
// (the index offset): hostile block metadata pointing past it — or
// claiming more entries than its bytes could encode — is rejected here
// so no block load can be tricked into a huge allocation or an
// out-of-range read.
func (r *Reader) parseIndex(index []byte, dataLen uint64) error {
	d := skv.NewDecoder(index)
	// An index entry is at least a key (4 length prefixes + varint ts),
	// three uvarints, and a 4-byte crc.
	nblocks := d.Count(8)
	r.blocks = make([]blockMeta, 0, nblocks)
	for i := 0; i < nblocks && d.Err() == nil; i++ {
		var b blockMeta
		b.firstKey = d.Entry().K
		b.off = d.Uvarint()
		b.len = d.Uvarint()
		count := d.Uvarint()
		b.count = int(count)
		b.crc = d.Fixed32()
		switch {
		case d.Err() != nil:
		case b.off+b.len < b.off || b.off+b.len > dataLen:
			d.Fail(fmt.Errorf("block %d range [%d,+%d) outside data region (%d bytes)", i, b.off, b.len, dataLen))
		case count > b.len:
			// Every encoded entry takes at least one byte, so a count
			// above the block's byte length is corrupt.
			d.Fail(fmt.Errorf("block %d entry count %d exceeds block size %d", i, count, b.len))
		}
		r.blocks = append(r.blocks, b)
	}
	// As per block, and compaction sizes its output by this count.
	if total := d.Uvarint(); total > dataLen {
		d.Fail(fmt.Errorf("entry count %d exceeds data size %d", total, dataLen))
	} else {
		r.count = int(total)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("rfile: %s: index: %w", r.path, err)
	}
	r.bloom = parseBloom(&d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("rfile: %s: row bloom: %w", r.path, err)
	}
	r.colqBloom = parseBloom(&d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("rfile: %s: colq bloom: %w", r.path, err)
	}
	if err := r.parseFamilyDir(&d); err != nil {
		return fmt.Errorf("rfile: %s: family directory: %w", r.path, err)
	}
	return nil
}

// parseFamilyDir decodes the family directory, the index's last section,
// validating that family names strictly ascend and that the runs tile
// the block list exactly: each run starts where the previous one ended,
// is non-empty, and the last ends at the final block. A gap would leave
// blocks that no iterator ever reads — silently dropped data — so it is
// corruption.
func (r *Reader) parseFamilyDir(d *skv.Decoder) error {
	// A family entry is at least a name prefix and two uvarints.
	nfam := d.Count(3)
	prevHi := 0
	r.families = make([]famRun, 0, nfam)
	for i := 0; i < nfam; i++ {
		name := d.Str()
		lo, hi := d.Uvarint(), d.Uvarint()
		if err := d.Err(); err != nil {
			return err
		}
		if lo != uint64(prevHi) || hi <= lo || hi > uint64(len(r.blocks)) {
			return fmt.Errorf("family %q run [%d,%d) does not continue the tiling of %d blocks at %d",
				name, lo, hi, len(r.blocks), prevHi)
		}
		if i > 0 && name <= r.families[i-1].name {
			return fmt.Errorf("family %q out of order after %q", name, r.families[i-1].name)
		}
		prevHi = int(hi)
		r.families = append(r.families, famRun{name: name, lo: int(lo), hi: int(hi)})
	}
	if err := d.Done(); err != nil {
		return err
	}
	if prevHi != len(r.blocks) {
		return fmt.Errorf("family runs cover %d of %d blocks", prevHi, len(r.blocks))
	}
	return nil
}

// MayContainRow reports whether the file could hold entries with the
// given row: false only when the bloom filter proves absence.
func (r *Reader) MayContainRow(row string) bool {
	return r.bloom.mayContain(bloomHash(row))
}

// MayContainCell reports whether the file could hold entries with the
// given (row, colQ) pair: false only when the column bloom filter
// proves absence.
func (r *Reader) MayContainCell(row, colQ string) bool {
	return r.colqBloom.mayContain(bloomHashPair(row, colQ))
}

// Count returns the number of entries in the file.
func (r *Reader) Count() int { return r.count }

// Families returns the family directory's family names, in stored
// (ascending) order.
func (r *Reader) Families() []string {
	out := make([]string, len(r.families))
	for i, fr := range r.families {
		out[i] = fr.name
	}
	return out
}

// MarkDead records that the file backing the Reader has been deleted
// and evicts its blocks from the shared cache. In-flight Iters keep
// working through the open descriptor, but stop feeding the cache —
// without this, a scan running through a major compaction would
// repopulate the cache with blocks of a file nothing will open again,
// displacing live blocks until the Reader is finalized.
func (r *Reader) MarkDead() {
	r.dead.Store(true)
	r.cache.EvictFile(r.path)
}

// Close releases the file descriptor and evicts the file's blocks from
// the shared cache. Idempotent; in-flight Iters will fail on their next
// disk block load.
func (r *Reader) Close() error {
	r.closeOnce.Do(func() {
		runtime.SetFinalizer(r, nil)
		r.MarkDead()
		r.closeErr = r.f.Close()
	})
	return r.closeErr
}

// readBufs recycles block read buffers: a parsed block copies what it
// keeps, so the buffer is free again once ParseBlock returns.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// loadBlock returns data block i, from the shared cache when resident,
// else by reading, CRC-verifying, and parsing exactly the index's entry
// count from disk (and feeding the cache). A Block is shared across
// iterators and immutable.
func (r *Reader) loadBlock(i int) (*skv.Block, error) {
	if cached, ok := r.cache.Get(r.path, i); ok {
		return cached, nil
	}
	b := r.blocks[i]
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	if uint64(cap(*buf)) < b.len {
		*buf = make([]byte, b.len)
	}
	raw := (*buf)[:b.len]
	if _, err := r.f.ReadAt(raw, int64(b.off)); err != nil {
		return nil, fmt.Errorf("rfile: %s: block %d read: %w", r.path, i, err)
	}
	if crc32.Checksum(raw, castagnoli) != b.crc {
		return nil, fmt.Errorf("rfile: %s: block %d checksum mismatch", r.path, i)
	}
	blk, err := skv.ParseBlock(raw, b.count)
	if err != nil {
		return nil, fmt.Errorf("rfile: %s: block %d decode: %w", r.path, i, err)
	}
	if !r.dead.Load() {
		r.cache.Put(r.path, i, blk)
	}
	return blk, nil
}

// Iter returns a fresh, unseeked iterator over the whole file; it
// implements iterator.SKVI. Multi-family files merge their family runs
// back into global key order.
func (r *Reader) Iter() iterator.SKVI { return r.iterRuns(r.families) }

// IterFamilies returns an iterator constrained to a set of column
// families: only the matching families' block runs are touched, and
// the blocks the constraint skipped are counted as
// telemetry.LocalityBlocksSkipped. An empty family set means
// unconstrained.
func (r *Reader) IterFamilies(families []string) iterator.SKVI {
	if len(families) == 0 {
		return r.Iter()
	}
	want := make(map[string]bool, len(families))
	for _, f := range families {
		want[f] = true
	}
	var runs []famRun
	skipped := 0
	for _, fr := range r.families {
		if want[fr.name] {
			runs = append(runs, fr)
		} else {
			skipped += fr.hi - fr.lo
		}
	}
	r.stats.Add(telemetry.LocalityBlocksSkipped, int64(skipped))
	return r.iterRuns(runs)
}

// iterRuns serves a set of family block runs. Several runs merge back
// into global key order, with the file-level bloom probes hoisted above
// the merge so a negative is counted once, not per run.
func (r *Reader) iterRuns(runs []famRun) iterator.SKVI {
	switch len(runs) {
	case 0:
		return &Iter{r: r, blk: -1}
	case 1:
		return &Iter{r: r, lo: runs[0].lo, hi: runs[0].hi, probe: true, blk: -1}
	}
	sources := make([]iterator.SKVI, len(runs))
	for i, fr := range runs {
		sources[i] = &Iter{r: r, lo: fr.lo, hi: fr.hi, blk: -1}
	}
	// Keys cannot collide across family runs (ColF differs), so a plain
	// merge suffices.
	return &familyIter{r: r, src: iterator.NewMergeIter(sources...)}
}

// Iter is a seekable sorted iterator over one contiguous block run of
// an rfile: one locality group, or the whole file when it holds a
// single family. It walks the block it holds by position, cutting each
// entry from the block's bytes as it becomes the top.
type Iter struct {
	r      *Reader
	lo, hi int  // block subrange [lo, hi) this iterator serves
	probe  bool // consult the file's bloom filters on Seek
	rng    skv.Range
	blk    int        // index of block while it is non-nil; -1 before Seek
	block  *skv.Block // the held block
	next   skv.BlockPos
	top    skv.Entry // the entry just before next, when has
	has    bool
	err    error
}

var _ iterator.SKVI = (*Iter)(nil)

// singleRowOf returns the one row a range is confined to, when it is.
// It recognises exact-row ranges (skv.ExactRow's end is the smallest
// key of the successor row) and ranges ending inside their start row.
func singleRowOf(rng skv.Range) (string, bool) {
	if !rng.HasStart || !rng.HasEnd {
		return "", false
	}
	row := rng.Start.Row
	if rng.End.Row == row {
		return row, true
	}
	if rng.End.Row == row+"\x00" && rng.End.ColF == "" && rng.End.ColQ == "" && rng.End.Ts == skv.MaxTs {
		return row, true
	}
	return "", false
}

// singleCellOf returns the one (row, colQ) pair a range is confined to,
// when it is. Because keys sort (row, colF, colQ), a range only pins a
// single qualifier when it also stays inside a single column family —
// skv.ExactCell produces exactly this shape (its end is the smallest
// key of the successor qualifier), and ranges ending inside their start
// cell qualify too.
func singleCellOf(rng skv.Range) (row, colQ string, ok bool) {
	if !rng.HasStart || !rng.HasEnd {
		return "", "", false
	}
	s, e := rng.Start, rng.End
	if e.Row != s.Row || e.ColF != s.ColF {
		return "", "", false
	}
	if e.ColQ == s.ColQ {
		return s.Row, s.ColQ, true
	}
	if e.ColQ == s.ColQ+"\x00" && e.Ts == skv.MaxTs {
		return s.Row, s.ColQ, true
	}
	return "", "", false
}

// bloomRejects probes the file-level bloom filters for a seek confined
// to one row or one cell, counting negatives in the shared stats.
func (r *Reader) bloomRejects(rng skv.Range) bool {
	// A seek confined to one row is answered by the row bloom filter
	// when the file cannot contain the row: no index search, no block
	// load. A seek confined to one cell additionally probes the
	// (row, colQ) bloom, catching the "row present, column absent"
	// lookups the row filter must admit.
	if row, ok := singleRowOf(rng); ok && !r.MayContainRow(row) {
		r.stats.Add(telemetry.BloomNegatives, 1)
		return true
	}
	if row, colQ, ok := singleCellOf(rng); ok && !r.MayContainCell(row, colQ) {
		r.stats.Add(telemetry.ColQBloomNegatives, 1)
		return true
	}
	return false
}

// Seek implements SKVI. A seek whose start falls in the block the
// iterator already holds reuses it, so sorted seeks within one block —
// a multi-range pass over neighbouring rows — cost one block lookup.
func (it *Iter) Seek(rng skv.Range) error {
	it.rng = rng
	it.err = nil
	if it.lo >= it.hi || (it.probe && it.r.bloomRejects(rng)) {
		it.blk, it.block, it.has = it.hi, nil, false
		return nil
	}
	blk := it.lo
	if rng.HasStart {
		// Last block whose firstKey <= start could contain the start key.
		n := it.lo + sort.Search(it.hi-it.lo, func(i int) bool {
			return skv.Compare(it.r.blocks[it.lo+i].firstKey, rng.Start) > 0
		})
		if n > it.lo {
			blk = n - 1
		}
	}
	if blk != it.blk || it.block == nil {
		if err := it.loadBlock(blk); err != nil {
			return err
		}
	}
	it.next = skv.BlockPos{}
	if rng.HasStart {
		it.next = it.block.Seek(rng.Start)
	}
	return it.advance()
}

func (it *Iter) loadBlock(i int) error {
	it.blk, it.next, it.has = i, skv.BlockPos{}, false
	blk, err := it.r.loadBlock(i)
	it.block, it.err = blk, err
	return err
}

// advance makes the entry at it.next the top, crossing into the run's
// following blocks while the held one is exhausted. It stops short of a
// block whose first key is already past the range end: that block
// cannot hold an entry of the range. At the run's end it keeps the last
// block held, so a later seek into it needs no lookup.
func (it *Iter) advance() error {
	if it.block == nil {
		return nil
	}
	for {
		it.next, it.has = it.block.Read(it.next, &it.top)
		next := it.blk + 1
		if it.has || next >= it.hi || it.rng.AfterEnd(it.r.blocks[next].firstKey) {
			return nil
		}
		if err := it.loadBlock(next); err != nil {
			return err
		}
	}
}

// HasTop implements SKVI.
func (it *Iter) HasTop() bool {
	return it.err == nil && it.has && !it.rng.AfterEnd(it.top.K)
}

// Top implements SKVI.
func (it *Iter) Top() skv.Entry { return it.top }

// Next implements SKVI.
func (it *Iter) Next() error { return it.advance() }

// familyIter merges several locality-group runs into one sorted stream,
// hoisting the file-level bloom probes above the merge so each probe is
// answered (and counted) once per seek instead of once per run.
type familyIter struct {
	r    *Reader
	src  iterator.SKVI
	skip bool // current seek answered empty by a bloom negative
}

var _ iterator.SKVI = (*familyIter)(nil)

// Seek implements SKVI.
func (f *familyIter) Seek(rng skv.Range) error {
	f.skip = f.r.bloomRejects(rng)
	if f.skip {
		return nil
	}
	return f.src.Seek(rng)
}

// HasTop implements SKVI.
func (f *familyIter) HasTop() bool { return !f.skip && f.src.HasTop() }

// Top implements SKVI.
func (f *familyIter) Top() skv.Entry { return f.src.Top() }

// Next implements SKVI.
func (f *familyIter) Next() error { return f.src.Next() }
