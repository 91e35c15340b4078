package cache

import (
	"fmt"
	"sync"
	"testing"

	"graphulo/internal/skv"
)

func blockOf(n int, tag string) *skv.Block {
	var raw []byte
	for i := 0; i < n; i++ {
		raw = skv.EncodeEntry(raw, skv.Entry{
			K: skv.Key{Row: fmt.Sprintf("%s-row%04d", tag, i), ColQ: "q", Ts: 1},
			V: skv.Value("0123456789"),
		})
	}
	b, err := skv.ParseBlock(raw, n)
	if err != nil {
		panic(err)
	}
	return b
}

func TestHitMissAccounting(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Get("f", 0); ok {
		t.Fatal("hit on empty cache")
	}
	want := blockOf(10, "a")
	c.Put("f", 0, want)
	if got, ok := c.Get("f", 0); !ok || got != want {
		t.Fatalf("Get after Put = (%p, %v), want (%p, true)", got, ok, want)
	}
	if c.Bytes() != want.Size() {
		t.Fatalf("Bytes = %d, want the block's resident size %d", c.Bytes(), want.Size())
	}
	if _, ok := c.Get("f", 1); ok {
		t.Fatal("hit on absent block")
	}
	if c.Hits() != 1 || c.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 1/2", c.Hits(), c.Misses())
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	per := blockOf(10, "x").Size()
	c := New(3 * per) // room for exactly three blocks
	for i := 0; i < 4; i++ {
		c.Put("f", i, blockOf(10, "x"))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get("f", 0); ok {
		t.Fatal("LRU tail (block 0) not evicted")
	}
	// Touch block 1, insert another: block 2 is now the tail.
	if _, ok := c.Get("f", 1); !ok {
		t.Fatal("block 1 missing")
	}
	c.Put("f", 9, blockOf(10, "x"))
	if _, ok := c.Get("f", 2); ok {
		t.Fatal("LRU order ignored: block 2 should have been evicted")
	}
	if _, ok := c.Get("f", 1); !ok {
		t.Fatal("recently-used block 1 evicted")
	}
	if c.Bytes() > 3*per {
		t.Fatalf("resident bytes %d exceed bound %d", c.Bytes(), 3*per)
	}
}

func TestOversizedBlockNotAdmitted(t *testing.T) {
	c := New(10)
	c.Put("f", 0, blockOf(100, "big"))
	if c.Len() != 0 {
		t.Fatal("oversized block admitted")
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 5; i++ {
		c.Put("a", i, blockOf(2, "a"))
		c.Put("b", i, blockOf(2, "b"))
	}
	c.EvictFile("a")
	if c.Len() != 5 {
		t.Fatalf("Len after EvictFile = %d, want 5", c.Len())
	}
	if _, ok := c.Get("a", 3); ok {
		t.Fatal("evicted file still resident")
	}
	if _, ok := c.Get("b", 3); !ok {
		t.Fatal("other file's blocks evicted")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *BlockCache
	c.Put("f", 0, blockOf(1, "n"))
	if _, ok := c.Get("f", 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.EvictFile("f")
	if c.Hits() != 0 || c.Misses() != 0 || c.Bytes() != 0 || c.Len() != 0 {
		t.Fatal("nil cache reported nonzero stats")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(8 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				file := fmt.Sprintf("f%d", i%3)
				c.Put(file, i%20, blockOf(4, file))
				c.Get(file, (i+1)%20)
				if i%100 == 0 {
					c.EvictFile(file)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() < 0 {
		t.Fatal("negative resident size")
	}
}
