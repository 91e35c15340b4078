package store

import (
	"os"
	"path/filepath"
	"testing"

	"graphulo/internal/skv"
	"graphulo/internal/tablet"
)

// realManifest builds a data directory with a split table whose tablets
// hold an rfile each and returns its MANIFEST bytes.
func realManifest(f *testing.F) []byte {
	dir := f.TempDir()
	d, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	stores, err := d.CreateTable("T", []string{"m"}, nil, [][2]string{{"", "m"}, {"m", ""}})
	if err != nil {
		f.Fatal(err)
	}
	for i, ts := range stores {
		tab := tablet.NewDurable("", "", 0, ts, nil, nil)
		if err := tab.Write([]skv.Entry{ent([]string{"a", "z"}[i], 1, "v")}); err != nil {
			f.Fatal(err)
		}
		if err := tab.MinorCompact(nil); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzOpenManifest: whatever bytes sit in MANIFEST, Open, Tables and
// OpenTablet return an error or succeed — they never panic — and a
// manifest that opens names no rfile outside rf/.
func FuzzOpenManifest(f *testing.F) {
	f.Add(realManifest(f))
	f.Add([]byte(`{"tables":{"T":null}}`))
	f.Add([]byte(`{"tables":{"T":{"tablets":[null]}}}`))
	f.Add([]byte(`{"tables":{"T":{"tablets":[{"id":1,"rfiles":["../../escape.rf"]}]}}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir, Options{NoSync: true, BlockCacheBytes: -1})
		if err != nil {
			return
		}
		defer d.Abandon()
		for _, ti := range d.Tables() {
			for _, tb := range ti.Tablets {
				d.OpenTablet(ti.Name, tb)
			}
		}
		for _, tm := range d.man.Tables {
			for _, tb := range tm.Tablets {
				for _, name := range tb.RFiles {
					if filepath.Dir(d.rfPath(name)) != filepath.Join(dir, rfDirName) {
						t.Fatalf("rfile %q resolves outside rf/", name)
					}
				}
			}
		}
	})
}
