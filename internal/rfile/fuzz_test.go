package rfile

// Fuzz coverage for the file opener, mirroring the wire codec fuzzers:
// rfile bytes come from disk — possibly truncated by a crash or
// corrupted in transit — so the key property is that arbitrary input
// returns an error instead of panicking or over-allocating, and that
// whatever does open serves scans without panicking.

import (
	"os"
	"path/filepath"
	"testing"

	"graphulo/internal/skv"
)

// FuzzOpenRFile: arbitrary bytes never panic Open; files that open must
// survive a full scan, a family-banded scan, and a row seek.
func FuzzOpenRFile(f *testing.F) {
	// Seeds: a current file, its image under every other trailer
	// version, its image with a gap in the family directory, an empty
	// file's bytes, and deliberate truncations/corruptions.
	im := splitImage(f, fixtureEntries())
	v4 := im.encode(version)
	emptyPath := filepath.Join(f.TempDir(), "empty.rf")
	if err := WriteAll(emptyPath, nil, WriterOptions{}); err != nil {
		f.Fatal(err)
	}
	empty, err := os.ReadFile(emptyPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v4)
	f.Add(empty)
	for _, v := range []uint32{0, 1, 2, 3, 5} {
		f.Add(im.encode(v))
	}
	f.Add(im.gapped().encode(version))
	f.Add([]byte{})
	f.Add(v4[:len(v4)/2])            // data region cut mid-block
	f.Add(v4[:len(v4)-trailerLen+3]) // trailer torn
	f.Add(v4[len(v4)-trailerLen:])   // trailer with no body
	corrupt := append([]byte(nil), v4...)
	corrupt[len(corrupt)-trailerLen-2] ^= 0xff // family directory bytes flipped
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.rf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			return // rejected cleanly — the only acceptable failure mode
		}
		defer r.Close()
		drain := func(seek skv.Range, families []string) {
			it := r.IterFamilies(families)
			if err := it.Seek(seek); err != nil {
				return // block-level corruption surfaces as an iteration error
			}
			for n := 0; it.HasTop() && n < 1<<17; n++ {
				_ = it.Top()
				if it.Next() != nil {
					return
				}
			}
		}
		drain(skv.Range{}, nil)
		drain(skv.Range{}, []string{"edge"})
		drain(skv.ExactRow("v0007"), nil)
	})
}
