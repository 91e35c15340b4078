package skv

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// blockEntries is a deterministic block's worth of entries, with the
// empty fields and empty values the codec must carry.
func blockEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(int64(n)))
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{K: Key{Row: fmt.Sprintf("v%06d", i), ColF: "edge", ColQ: randStr(rng), Ts: rng.Int63n(1 << 40)}}
		if i%7 != 0 {
			out[i].V = EncodeFloat(float64(i))
		}
	}
	return out
}

func encodeBlock(entries []Entry) []byte {
	var buf []byte
	for _, e := range entries {
		buf = EncodeEntry(buf, e)
	}
	return buf
}

// decodeEach is the per-entry reference DecodeBlock must agree with.
func decodeEach(t *testing.T, src []byte) []Entry {
	t.Helper()
	var out []Entry
	for len(src) > 0 {
		e, rest, err := DecodeEntry(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
		src = rest
	}
	return out
}

// TestDecodeBlockMatchesDecodeEntry: the arena decode yields the
// entries the per-entry decode does, copies nothing it can share with
// src, and caps every value so an append cannot spill into the next.
func TestDecodeBlockMatchesDecodeEntry(t *testing.T) {
	entries := blockEntries(300)
	src := encodeBlock(entries)
	got, err := DecodeBlock(src, len(entries))
	if err != nil {
		t.Fatal(err)
	}
	if want := decodeEach(t, src); !reflect.DeepEqual(got, want) {
		t.Fatal("DecodeBlock differs from per-entry DecodeEntry")
	}
	for i := range src {
		src[i] ^= 0xff
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatal("decoded entries changed when the source bytes did")
	}
	next := string(got[2].V)
	got[1].V = append(got[1].V, "spill"...)
	if string(got[2].V) != next {
		t.Fatalf("append to value 1 overwrote value 2: %q", got[2].V)
	}
	if empty, err := DecodeBlock(nil, 0); err != nil || len(empty) != 0 {
		t.Fatalf("empty block: %v, %d entries", err, len(empty))
	}
}

// TestDecodeBlockRejects: the bytes must hold exactly the caller's
// count. Fewer or more is ErrEntryCount; bytes that end inside an entry
// are a truncation, as DecodeEntry reports it; and a length written in
// more bytes than EncodeEntry uses is corruption.
func TestDecodeBlockRejects(t *testing.T) {
	src := encodeBlock(blockEntries(10))
	for _, n := range []int{-1, 0, 9, 11, 1 << 40} {
		if _, err := DecodeBlock(src, n); !errors.Is(err, ErrEntryCount) {
			t.Errorf("count %d for 10 entries: err = %v, want ErrEntryCount", n, err)
		}
	}
	_, err := DecodeBlock(src[:len(src)-1], 10)
	if err == nil || errors.Is(err, ErrEntryCount) {
		t.Fatalf("block cut inside an entry: err = %v, want a truncation", err)
	}
	overlong := []byte{0x80, 0x00, 0, 0, 0, 0} // an empty entry whose row length takes 2 bytes
	if _, _, err := DecodeEntry(overlong); err != nil {
		t.Fatalf("DecodeEntry(overlong) = %v, want it accepted", err)
	}
	if _, err := DecodeBlock(overlong, 1); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
}

// TestDecodeBlockAllocs pins the arena decode: a 1 000-entry block
// costs the entry slice and two arenas, not three or four objects per
// entry.
func TestDecodeBlockAllocs(t *testing.T) {
	entries := blockEntries(1000)
	src := encodeBlock(entries)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBlock(src, len(entries)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("1000-entry block decode made %.0f allocations, want <= 4", allocs)
	}
}

// FuzzDecodeBlock: arbitrary bytes and counts never panic; what decodes
// re-encodes to the same bytes and shares no memory with them.
func FuzzDecodeBlock(f *testing.F) {
	good := encodeBlock(blockEntries(20))
	f.Add(good, 20)
	f.Add(good, 19)
	f.Add(good, 21)
	f.Add(good[:len(good)/2], 10)
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 0, 0, 0, 0}, 1)
	f.Add([]byte{0x80, 0x00, 0, 0, 0, 0}, 1)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 1)
	f.Fuzz(func(t *testing.T, src []byte, n int) {
		got, err := DecodeBlock(src, n)
		if err != nil {
			return
		}
		if len(got) != n {
			t.Fatalf("decoded %d entries, want %d", len(got), n)
		}
		if re := encodeBlock(got); string(re) != string(src) {
			t.Fatalf("re-encoding gives %x, want %x", re, src)
		}
		want := make([]Entry, len(got))
		for i, e := range got {
			want[i] = Entry{K: e.K, V: append(Value(nil), e.V...)}
		}
		for i := range src {
			src[i] ^= 0xff
		}
		for i := range got {
			if got[i].K != want[i].K || string(got[i].V) != string(want[i].V) {
				t.Fatalf("entry %d changed with its source bytes", i)
			}
		}
	})
}
