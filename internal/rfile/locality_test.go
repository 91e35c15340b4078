package rfile

// Locality-group coverage: the v4 writer partitions entries into
// per-family block runs, and family-constrained iterators touch only
// the matching runs' blocks, counting everything else as skipped.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// collect drains a fully-seeked iterator.
func collect(t *testing.T, it iterator.SKVI) []skv.Entry {
	t.Helper()
	if err := it.Seek(skv.Range{}); err != nil {
		t.Fatal(err)
	}
	var es []skv.Entry
	for it.HasTop() {
		es = append(es, it.Top())
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	return es
}

// filterFamilies mirrors the family constraint client-side.
func filterFamilies(es []skv.Entry, families ...string) []skv.Entry {
	want := map[string]bool{}
	for _, f := range families {
		want[f] = true
	}
	var out []skv.Entry
	for _, e := range es {
		if want[e.K.ColF] {
			out = append(out, e)
		}
	}
	return out
}

// mixedFamilyEntries builds a deg+edge+raw table shape: every family
// large enough to fill several blocks at the test block size.
func mixedFamilyEntries(n int) []skv.Entry {
	var es []skv.Entry
	for i := 0; i < n; i++ {
		row := fmt.Sprintf("v%05d", i)
		es = append(es,
			skv.Entry{K: skv.Key{Row: row, ColF: "deg", ColQ: "deg", Ts: 1}, V: []byte("00000003")},
			skv.Entry{K: skv.Key{Row: row, ColF: "edge", ColQ: fmt.Sprintf("v%05d", (i+1)%n), Ts: 1}, V: []byte("00000001")},
			skv.Entry{K: skv.Key{Row: row, ColF: "edge", ColQ: fmt.Sprintf("v%05d", (i+2)%n), Ts: 1}, V: []byte("00000001")},
			skv.Entry{K: skv.Key{Row: row, ColF: "raw", ColQ: "raw", Ts: 1}, V: []byte("payload")},
		)
	}
	// The wrapped neighbour qualifiers (i+1, i+2 mod n) fall out of colQ
	// order on the last rows; restore global key order.
	sort.Slice(es, func(i, j int) bool { return skv.Compare(es[i].K, es[j].K) < 0 })
	return es
}

// TestLocalityGroupLayout pins the physical layout: one contiguous
// block run per family, families in ascending name order, runs exactly
// covering the block list.
func TestLocalityGroupLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lg.rf")
	if err := WriteAll(path, mixedFamilyEntries(400), WriterOptions{BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fams := r.Families()
	if !sort.StringsAreSorted(fams) || !reflect.DeepEqual(fams, []string{"deg", "edge", "raw"}) {
		t.Fatalf("Families = %v, want sorted [deg edge raw]", fams)
	}
	prevHi := 0
	for _, fr := range r.families {
		if fr.lo != prevHi || fr.hi <= fr.lo {
			t.Fatalf("family %q run [%d,%d) not contiguous after %d", fr.name, fr.lo, fr.hi, prevHi)
		}
		if fr.hi-fr.lo < 2 {
			t.Fatalf("family %q run has %d blocks; need ≥2 for the skip test to mean anything", fr.name, fr.hi-fr.lo)
		}
		// Every block in the run must open with the run's family.
		for b := fr.lo; b < fr.hi; b++ {
			if r.blocks[b].firstKey.ColF != fr.name {
				t.Fatalf("block %d firstKey family %q inside run %q", b, r.blocks[b].firstKey.ColF, fr.name)
			}
		}
		prevHi = fr.hi
	}
	if prevHi != len(r.blocks) {
		t.Fatalf("family runs cover %d of %d blocks", prevHi, len(r.blocks))
	}
}

// TestFamilyConstrainedIterSkipsBlocks pins the perf mechanism: a
// family-banded iterator loads only its band's blocks, and the blocks
// in every other family's run are counted skipped — exactly, not just
// positively.
func TestFamilyConstrainedIterSkipsBlocks(t *testing.T) {
	entries := mixedFamilyEntries(400)
	path := filepath.Join(t.TempDir(), "lg.rf")
	if err := WriteAll(path, entries, WriterOptions{BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	var stats telemetry.StatSet
	r, err := OpenWithOptions(path, ReaderOptions{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	blocksOf := func(fam string) int {
		for _, fr := range r.families {
			if fr.name == fam {
				return fr.hi - fr.lo
			}
		}
		return 0
	}
	total := len(r.blocks)

	got := collect(t, r.IterFamilies([]string{"deg"}))
	want := filterFamilies(entries, "deg")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deg band: %d entries, want %d", len(got), len(want))
	}
	if skipped := stats.Get(telemetry.LocalityBlocksSkipped); skipped != int64(total-blocksOf("deg")) {
		t.Fatalf("deg band skipped %d blocks, want %d (total %d, deg %d)",
			skipped, total-blocksOf("deg"), total, blocksOf("deg"))
	}

	// A two-family band skips only the third family's run.
	stats.Add(telemetry.LocalityBlocksSkipped, -stats.Get(telemetry.LocalityBlocksSkipped))
	got = collect(t, r.IterFamilies([]string{"deg", "edge"}))
	want = filterFamilies(entries, "deg", "edge")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deg+edge band: %d entries, want %d", len(got), len(want))
	}
	if skipped := stats.Get(telemetry.LocalityBlocksSkipped); skipped != int64(blocksOf("raw")) {
		t.Fatalf("deg+edge band skipped %d blocks, want raw's %d", skipped, blocksOf("raw"))
	}

	// A band naming no stored family skips every block.
	stats.Add(telemetry.LocalityBlocksSkipped, -stats.Get(telemetry.LocalityBlocksSkipped))
	if got := collect(t, r.IterFamilies([]string{"absent"})); len(got) != 0 {
		t.Fatalf("absent band surfaced %d entries", len(got))
	}
	if skipped := stats.Get(telemetry.LocalityBlocksSkipped); skipped != int64(total) {
		t.Fatalf("absent band skipped %d blocks, want all %d", skipped, total)
	}

	// An unconstrained scan skips nothing and returns global order.
	stats.Add(telemetry.LocalityBlocksSkipped, -stats.Get(telemetry.LocalityBlocksSkipped))
	if got := collect(t, r.Iter()); !reflect.DeepEqual(got, entries) {
		t.Fatalf("unconstrained scan diverged: %d entries, want %d", len(got), len(entries))
	}
	if skipped := stats.Get(telemetry.LocalityBlocksSkipped); skipped != 0 {
		t.Fatalf("unconstrained scan counted %d skipped blocks", skipped)
	}
}

// TestLocalityGroupScanLoadsHalfTheBlocks pins what locality groups buy
// as a contract on block counts: a deg-banded scan loads at most half
// of the file's blocks — what an unbanded scan of the same file, or a
// file without locality groups, would have to read. Loads are counted
// as misses of a cold block cache, and the blocks the band skipped must
// account for the rest.
func TestLocalityGroupScanLoadsHalfTheBlocks(t *testing.T) {
	entries := mixedFamilyEntries(1 << 12)
	path := filepath.Join(t.TempDir(), "lg.rf")
	if err := WriteAll(path, entries, WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	var stats telemetry.StatSet
	c := cache.New(1 << 30)
	r, err := OpenWithOptions(path, ReaderOptions{Cache: c, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := collect(t, r.IterFamilies([]string{"deg"})), filterFamilies(entries, "deg"); !reflect.DeepEqual(got, want) {
		t.Fatalf("deg band scanned %d entries, want %d", len(got), len(want))
	}
	total, loads := int64(len(r.blocks)), c.Misses()
	if loads == 0 || total < 2*loads {
		t.Fatalf("deg band loaded %d of %d blocks — want at most half", loads, total)
	}
	if skipped := stats.Get(telemetry.LocalityBlocksSkipped); loads+skipped != total {
		t.Fatalf("loaded %d + skipped %d blocks ≠ %d in the file", loads, skipped, total)
	}
}

// TestFamilyConstrainedSeekWithinBand: banded iterators honour row
// ranges inside their runs (seek + reseek), matching a client-side
// filter over the same range.
func TestFamilyConstrainedSeekWithinBand(t *testing.T) {
	entries := mixedFamilyEntries(300)
	path := filepath.Join(t.TempDir(), "lg.rf")
	if err := WriteAll(path, entries, WriterOptions{BlockSize: 512}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	it := r.IterFamilies([]string{"edge"})
	for _, row := range []string{"v00042", "v00123", "v00007"} {
		if err := it.Seek(skv.ExactRow(row)); err != nil {
			t.Fatal(err)
		}
		var got []skv.Entry
		for it.HasTop() {
			got = append(got, it.Top())
			if err := it.Next(); err != nil {
				t.Fatal(err)
			}
		}
		var want []skv.Entry
		for _, e := range entries {
			if e.K.Row == row && e.K.ColF == "edge" {
				want = append(want, e)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %s edge band: got %d entries, want %d", row, len(got), len(want))
		}
	}
}
