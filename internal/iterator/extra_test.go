package iterator

import (
	"testing"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

func TestRowReduceIter(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("a", "", "x", 1, 2),
		e("a", "", "y", 1, 3),
		e("b", "", "x", 1, 7),
	})
	r := NewRowReduceIter(src, semiring.PlusMonoid, "", "deg")
	if err := r.Seek(skv.FullRange()); err != nil {
		t.Fatal(err)
	}
	got, _ := Collect(r)
	if len(got) != 2 {
		t.Fatalf("want 2 row sums, got %d", len(got))
	}
	if v, _ := skv.DecodeFloat(got[0].V); v != 5 || got[0].K.Row != "a" || got[0].K.ColQ != "deg" {
		t.Fatalf("row a sum wrong: %v %v", got[0].K, v)
	}
	if v, _ := skv.DecodeFloat(got[1].V); v != 7 {
		t.Fatalf("row b sum wrong: %v", v)
	}
}

func TestRowReduceMinMonoid(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("a", "", "x", 1, 5),
		e("a", "", "y", 1, 2),
	})
	r := NewRowReduceIter(src, semiring.MinMonoid, "f", "min")
	r.Seek(skv.FullRange())
	got, _ := Collect(r)
	if v, _ := skv.DecodeFloat(got[0].V); v != 2 || got[0].K.ColF != "f" {
		t.Fatalf("min reduce wrong: %v", got[0])
	}
}

func TestRowReduceFactoryBadMonoid(t *testing.T) {
	f, _ := Lookup("rowReduce")
	if _, err := f(NewSliceIter(nil), map[string]string{"monoid": "nope"}, nil); err == nil {
		t.Fatalf("expected error for unknown monoid")
	}
}

func TestFactoriesRequireOptions(t *testing.T) {
	for _, name := range []string{"remoteSource", "twoTable", "remoteWrite"} {
		f, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s not registered", name)
		}
		if _, err := f(NewSliceIter(nil), map[string]string{}, newFakeEnv()); err == nil {
			t.Fatalf("%s should reject empty options", name)
		}
	}
}

func TestScaleFactoryBadOption(t *testing.T) {
	f, _ := Lookup("scale")
	if _, err := f(NewSliceIter(nil), map[string]string{"factor": "zoo"}, nil); err == nil {
		t.Fatalf("expected parse error")
	}
}

func TestTwoTableFactorySemiringValidation(t *testing.T) {
	f, _ := Lookup("twoTable")
	if _, err := f(NewSliceIter(nil), map[string]string{"tableAT": "T", "semiring": "weird"}, newFakeEnv()); err == nil {
		t.Fatalf("expected unknown-semiring error")
	}
}

func TestVersioningAcrossSeeks(t *testing.T) {
	src := NewSliceIter([]skv.Entry{
		e("r", "", "q", 9, 90),
		e("r", "", "q", 5, 50),
		e("s", "", "q", 3, 30),
	})
	v := NewVersioningIter(src, 1)
	// First seek restricted to row r.
	v.Seek(skv.ExactRow("r"))
	got, _ := Collect(v)
	if len(got) != 1 {
		t.Fatalf("restricted scan: %v", keysOf(got))
	}
	// Re-seek full: state must reset.
	v.Seek(skv.FullRange())
	got, _ = Collect(v)
	if len(got) != 2 {
		t.Fatalf("re-seek scan: %v", keysOf(got))
	}
}

func TestDedupMergePrefersNewestSource(t *testing.T) {
	newer := NewSliceIter([]skv.Entry{e("r", "", "q", 5, 999)})
	older := NewSliceIter([]skv.Entry{e("r", "", "q", 5, 111)})
	m := NewDedupMergeIter(newer, older)
	m.Seek(skv.FullRange())
	got, _ := Collect(m)
	if len(got) != 1 {
		t.Fatalf("dedup should collapse identical keys: %d", len(got))
	}
	if v, _ := skv.DecodeFloat(got[0].V); v != 999 {
		t.Fatalf("newest source should win, got %v", v)
	}
}
