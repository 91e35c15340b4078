package rfile

// Format coverage: the reader speaks exactly one on-disk version, and
// the index sections it trusts — the two bloom filters and the family
// directory — are validated, so a hostile index fails Open instead of
// silently admitting or dropping data. Tests take a valid file apart at
// its index sections (splitImage) and reassemble it with one section
// replaced, fixing the index checksum and trailer so that only the
// replaced section is hostile.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"graphulo/internal/skv"
)

// fixtureBlockSize keeps every family of the fixture multi-block.
const fixtureBlockSize = 256

// fixtureEntries is a deterministic mixed-family entry set: per vertex
// one bare-family entry, one degree entry, and one edge entry — the
// deg+edge shape the locality-group scans band on.
func fixtureEntries() []skv.Entry {
	var es []skv.Entry
	for i := 0; i < 48; i++ {
		row := fmt.Sprintf("v%04d", i)
		es = append(es,
			skv.Entry{K: skv.Key{Row: row, ColF: "", ColQ: "plain", Ts: 1}, V: []byte("p")},
			skv.Entry{K: skv.Key{Row: row, ColF: "deg", ColQ: "deg", Ts: 1}, V: []byte("3")},
			skv.Entry{K: skv.Key{Row: row, ColF: "edge", ColQ: fmt.Sprintf("v%04d", (i+1)%48), Ts: 1}, V: []byte("1")},
		)
	}
	return es
}

// image is a file taken apart at its index sections.
type image struct {
	data      []byte      // data region
	blocks    []blockMeta // block index
	count     int         // total entry count
	row, colq []byte      // encoded bloom sections
	dir       []famRun    // family directory
}

// splitImage writes entries to a file and takes it apart.
func splitImage(t testing.TB, entries []skv.Entry) image {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.rf")
	if err := WriteAll(path, entries, WriterOptions{BlockSize: fixtureBlockSize}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	indexOff := binary.LittleEndian.Uint64(raw[len(raw)-trailerLen:])
	im := image{data: raw[:indexOff], blocks: r.blocks, count: r.count,
		row: appendBloom(nil, r.bloom), colq: appendBloom(nil, r.colqBloom), dir: r.families}
	if !bytes.Equal(im.encode(version), raw) {
		t.Fatal("reassembled image differs from the written file")
	}
	return im
}

// encode reassembles the image under trailer version v.
func (im image) encode(v uint32) []byte {
	index := append(append(appendBlockIndex(nil, im.blocks, im.count), im.row...), im.colq...)
	index = appendFamilyDir(index, im.dir)
	out := append(append([]byte(nil), im.data...), index...)
	var tr [trailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:], uint64(len(im.data)))
	binary.LittleEndian.PutUint32(tr[8:], uint32(len(index)))
	binary.LittleEndian.PutUint32(tr[12:], crc32.Checksum(index, castagnoli))
	binary.LittleEndian.PutUint32(tr[16:], v)
	binary.LittleEndian.PutUint32(tr[20:], magic)
	return append(out, tr[:]...)
}

// withDir returns a copy of the image whose family directory fn edits.
func (im image) withDir(fn func(dir []famRun)) image {
	im.dir = append([]famRun(nil), im.dir...)
	fn(im.dir)
	return im
}

// withBlocks returns a copy of the image whose block index fn edits.
func (im image) withBlocks(fn func(blocks []blockMeta)) image {
	im.blocks = append([]blockMeta(nil), im.blocks...)
	fn(im.blocks)
	return im
}

// gapped is the image with its first family run one block short: the
// runs no longer tile the block list, so one block belongs to no run.
func (im image) gapped() image {
	return im.withDir(func(dir []famRun) { dir[0].hi-- })
}

// writeBytes stores data as a file and returns its path.
func writeBytes(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.rf")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVersionMatrix patches a current file's trailer to every version
// around the current one: only version 4 opens — and serves full,
// family-banded, and row-seek scans of the written entries — while
// every other version fails Open with ErrUnsupportedVersion naming the
// file.
func TestVersionMatrix(t *testing.T) {
	entries := fixtureEntries()
	im := splitImage(t, entries)
	for _, v := range []uint32{0, 1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			path := writeBytes(t, im.encode(v))
			r, err := Open(path)
			if v != version {
				if !errors.Is(err, ErrUnsupportedVersion) {
					t.Fatalf("Open = %v, want ErrUnsupportedVersion", err)
				}
				if !strings.Contains(err.Error(), path) {
					t.Fatalf("error %q does not name %s", err, path)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got := collect(t, r.Iter()); !reflect.DeepEqual(got, entries) {
				t.Fatalf("full scan: %d entries, want %d (or order differs)", len(got), len(entries))
			}
			for _, band := range [][]string{{"edge"}, {"deg"}, {"", "edge"}, {"absent"}} {
				if got, want := collect(t, r.IterFamilies(band)), filterFamilies(entries, band...); !reflect.DeepEqual(got, want) {
					t.Fatalf("band %q: got %d entries, want %d", band, len(got), len(want))
				}
			}
			it := r.Iter()
			if err := it.Seek(skv.ExactRow("v0007")); err != nil {
				t.Fatal(err)
			}
			rows := 0
			for ; it.HasTop(); rows++ {
				if it.Top().K.Row != "v0007" {
					t.Fatalf("row seek surfaced %v", it.Top().K)
				}
				if err := it.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if rows != 3 {
				t.Fatalf("row v0007: %d entries, want 3", rows)
			}
		})
	}
}

// TestFamilyDirectoryHostile: a directory whose runs do not tile the
// block list exactly, or whose names do not strictly ascend, fails Open.
// A gap or a short tail would otherwise open and silently leave blocks
// out of every scan while Count still reported them.
func TestFamilyDirectoryHostile(t *testing.T) {
	im := splitImage(t, fixtureEntries())
	if len(im.dir) < 2 {
		t.Fatalf("fixture has %d families, want ≥ 2", len(im.dir))
	}
	for _, fr := range im.dir {
		if fr.hi-fr.lo < 2 {
			t.Fatalf("family %q run has %d blocks, want ≥ 2", fr.name, fr.hi-fr.lo)
		}
	}
	cases := map[string]image{
		"gap":             im.gapped(),
		"short tail":      im.withDir(func(dir []famRun) { dir[len(dir)-1].hi-- }),
		"overlap":         im.withDir(func(dir []famRun) { dir[1].lo-- }),
		"unsorted names":  im.withDir(func(dir []famRun) { dir[0].name, dir[1].name = dir[1].name, dir[0].name }),
		"duplicate names": im.withDir(func(dir []famRun) { dir[1].name = dir[0].name }),
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			r, err := Open(writeBytes(t, bad.encode(version)))
			if err == nil {
				r.Close()
				t.Fatal("hostile family directory accepted")
			}
			if errors.Is(err, ErrUnsupportedVersion) {
				t.Fatalf("rejected as a version mismatch: %v", err)
			}
		})
	}
}

// TestBloomSectionHostile: every writer emits both blooms with a
// non-empty bit array and at least one probe, so a zero-length or
// zero-probe section is corruption, as is a probe count past the
// reader's cap.
func TestBloomSectionHostile(t *testing.T) {
	im := splitImage(t, fixtureEntries())
	zeroLength := appendBloom(nil, bloomFilter{k: bloomProbes})
	zeroProbes := appendBloom(nil, bloomFilter{bits: []byte{0xff}})
	tooManyProbes := appendBloom(nil, bloomFilter{bits: []byte{0xff}, k: maxBloomProbes + 1})
	cases := map[string]image{}
	for name, sec := range map[string][]byte{"zero-length": zeroLength, "zero probes": zeroProbes, "probe count over cap": tooManyProbes} {
		row, colq := im, im
		row.row, colq.colq = sec, sec
		cases["row "+name], cases["colq "+name] = row, colq
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			r, err := Open(writeBytes(t, bad.encode(version)))
			if err == nil {
				r.Close()
				t.Fatal("hostile bloom section accepted")
			}
			if !strings.Contains(err.Error(), "bloom") {
				t.Fatalf("error %q does not name the bloom section", err)
			}
		})
	}
}

// TestBlockCountMismatch: a block decodes exactly the entry count its
// index records. An index whose count disagrees with a CRC-valid block
// opens — the count is plausible — but the block's first load fails
// with skv.ErrEntryCount naming the file and block, instead of serving
// however many entries the bytes happen to hold.
func TestBlockCountMismatch(t *testing.T) {
	im := splitImage(t, fixtureEntries())
	for name, delta := range map[string]int{"one more": 1, "one fewer": -1} {
		t.Run(name, func(t *testing.T) {
			bad := im.withBlocks(func(blocks []blockMeta) { blocks[0].count += delta })
			path := writeBytes(t, bad.encode(version))
			r, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			err = r.Iter().Seek(skv.FullRange())
			if !errors.Is(err, skv.ErrEntryCount) {
				t.Fatalf("Seek = %v, want skv.ErrEntryCount", err)
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "block 0") {
				t.Fatalf("error %q does not name %s block 0", err, path)
			}
		})
	}
}
