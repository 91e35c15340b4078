package tablet

import (
	"fmt"
	"sort"
	"testing"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

func benchEntries(n int) []skv.Entry {
	out := make([]skv.Entry, n)
	for i := range out {
		out[i] = skv.Entry{
			K: skv.Key{Row: fmt.Sprintf("row%07d", (i*2654435761)%n), ColQ: "q", Ts: int64(i)},
			V: skv.EncodeFloat(float64(i)),
		}
	}
	return out
}

// BenchmarkMemtableInsert inserts 1<<14 entries as 32 batches of 512
// whose keys spread over the whole key space, as RemoteWrite's fold
// generations do. "install": sorted batches into a fresh memtable,
// each installed whole as a segment. "finger": the same sorted batches
// after one skip-list entry, so the skip list takes them, each search
// resuming from the previous key. "shuffled": unsorted batches, linked
// with a search from the head.
func BenchmarkMemtableInsert(b *testing.B) {
	const batch = 512
	sorted := benchEntries(1 << 14)
	for lo := 0; lo < len(sorted); lo += batch {
		p := sorted[lo : lo+batch]
		sort.Slice(p, func(i, j int) bool { return skv.Compare(p[i].K, p[j].K) < 0 })
	}
	first := skv.Entry{K: skv.Key{Row: "first"}}
	for _, c := range []struct {
		name    string
		entries []skv.Entry
		lead    bool // one skip-list entry before the batches
	}{
		{"install", sorted, false},
		{"finger", sorted, true},
		{"shuffled", benchEntries(1 << 14), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := newMemtable()
				if c.lead {
					m.insertBatch([]skv.Entry{first})
				}
				for lo := 0; lo < len(c.entries); lo += batch {
					m.insertBatch(c.entries[lo : lo+batch])
				}
			}
			b.ReportMetric(float64(len(c.entries)), "entries/op")
		})
	}
}

func BenchmarkRunSeek(b *testing.B) {
	entries := benchEntries(1 << 16)
	it := iterator.NewSliceIter(entries)
	it.Seek(skv.FullRange())
	sorted, _ := iterator.Collect(it)
	r := newMemRun(sorted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ri := r.Iter()
		ri.Seek(skv.RowRange(fmt.Sprintf("row%07d", i%(1<<16)), ""))
		if ri.HasTop() {
			_ = ri.Top()
		}
	}
}

func BenchmarkTabletScanAfterCompactions(b *testing.B) {
	tab := New("", "", 1<<12, 9)
	for _, e := range benchEntries(1 << 15) {
		tab.Write([]skv.Entry{e})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := tab.Snapshot()
		it.Seek(skv.FullRange())
		n := 0
		for it.HasTop() {
			n++
			it.Next()
		}
		if n == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkMajorCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := New("", "", 1<<12, 9)
		for _, e := range benchEntries(1 << 14) {
			tab.Write([]skv.Entry{e})
		}
		b.StartTimer()
		if err := tab.MajorCompact(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemtableDrain drains 1<<14 entries from a memtable through
// the dedup merge a scan or flush reads it with, and reports ns per
// entry. "segments": four installed batches of 4 096 whose keys
// interleave, so the merge switches source on every entry. "skiplist":
// the same batches after a one-entry batch that sends them to the skip
// list, one source.
func BenchmarkMemtableDrain(b *testing.B) {
	const segs, per = 4, 4096
	it := iterator.NewSliceIter(benchEntries(segs * per))
	it.Seek(skv.FullRange())
	sorted, _ := iterator.Collect(it)
	batches := make([][]skv.Entry, segs)
	for i, e := range sorted {
		batches[i%segs] = append(batches[i%segs], e)
	}
	for _, c := range []struct {
		name string
		lead bool
	}{{"segments", false}, {"skiplist", true}} {
		b.Run(c.name, func(b *testing.B) {
			m := newMemtable()
			if c.lead {
				m.insertBatch(sorted[:1])
			}
			for _, batch := range batches {
				if m.insertBatch(batch) == c.lead {
					b.Fatalf("batch installed: %v, want %v", !c.lead, !c.lead)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				it := iterator.NewDedupMergeIter(m.sources(nil)...)
				it.Seek(skv.FullRange())
				for it.HasTop() {
					n++
					it.Next()
				}
			}
			if n != b.N*segs*per {
				b.Fatalf("drained %d entries, want %d", n, b.N*segs*per)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/entry")
		})
	}
}
