package rfile

import (
	"path/filepath"
	"testing"

	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/skv"
)

// BenchmarkRepeatedScan isolates what the block cache saves on a repeat
// scan of one rfile: the pread, CRC-32C verification, and entry decode
// of every block. The cluster-level BenchmarkRepeatedScanBlockCache
// measures the same effect end-to-end through the scan pipeline.
func BenchmarkRepeatedScan(b *testing.B) {
	entries := buildEntries(1 << 15)
	run := func(b *testing.B, c *cache.BlockCache) {
		path := filepath.Join(b.TempDir(), "bench.rf")
		if err := WriteAll(path, entries, WriterOptions{}); err != nil {
			b.Fatal(err)
		}
		r, err := OpenWithOptions(path, ReaderOptions{Cache: c})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		// Warm once so a cached run measures the steady hit path.
		it := r.Iter()
		if err := it.Seek(skv.FullRange()); err != nil {
			b.Fatal(err)
		}
		if _, err := iterator.Collect(it); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := r.Iter()
			if err := it.Seek(skv.FullRange()); err != nil {
				b.Fatal(err)
			}
			n := 0
			for it.HasTop() {
				n++
				if err := it.Next(); err != nil {
					b.Fatal(err)
				}
			}
			if n != len(entries) {
				b.Fatalf("scanned %d, want %d", n, len(entries))
			}
		}
		b.ReportMetric(float64(len(entries))*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
	}
	b.Run("cache-off", func(b *testing.B) { run(b, nil) })
	b.Run("cache-on", func(b *testing.B) { run(b, cache.New(64<<20)) })
}
