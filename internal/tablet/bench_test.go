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
// generations do, each batch sorted and installed as Tablet.Write does.
// "sorted": batches that already ascend, installed without a sort.
// "shuffled": unsorted batches, each sorted into a copy first.
func BenchmarkMemtableInsert(b *testing.B) {
	const batch = 512
	sorted := benchEntries(1 << 14)
	for lo := 0; lo < len(sorted); lo += batch {
		p := sorted[lo : lo+batch]
		sort.Slice(p, func(i, j int) bool { return skv.Compare(p[i].K, p[j].K) < 0 })
	}
	shuffled := benchEntries(1 << 14)
	for _, c := range []struct {
		name    string
		entries []skv.Entry
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := newMemtable()
				for lo := 0; lo < len(c.entries); lo += batch {
					insertBatch(m, c.entries[lo:lo+batch])
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
// entry, for the two segment counts the workloads freeze with: 4 (a
// kernel's fold generations) and 34 (client ingest batches). The
// segments' keys interleave, so the merge switches source on every
// entry.
func BenchmarkMemtableDrain(b *testing.B) {
	const total = 1 << 14
	it := iterator.NewSliceIter(benchEntries(total))
	it.Seek(skv.FullRange())
	sorted, _ := iterator.Collect(it)
	for _, segs := range []int{4, 34} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			batches := make([][]skv.Entry, segs)
			for i, e := range sorted {
				batches[i%segs] = append(batches[i%segs], e)
			}
			m := newMemtable()
			for _, batch := range batches {
				insertBatch(m, batch)
			}
			if n := len(segments(m)); n != segs {
				b.Fatalf("%d segments, want %d", n, segs)
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
			if n != b.N*total {
				b.Fatalf("drained %d entries, want %d", n, b.N*total)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/entry")
		})
	}
}
