package skv

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareOrdering(t *testing.T) {
	ordered := []Key{
		{Row: "a", ColF: "f", ColQ: "q", Ts: 9}, // newest first within cell
		{Row: "a", ColF: "f", ColQ: "q", Ts: 2},
		{Row: "a", ColF: "f", ColQ: "r", Ts: 5},
		{Row: "a", ColF: "g", ColQ: "a", Ts: 5},
		{Row: "b", ColF: "", ColQ: "", Ts: MaxTs},
		{Row: "b", ColF: "", ColQ: "", Ts: 0},
	}
	for i := 0; i < len(ordered)-1; i++ {
		if Compare(ordered[i], ordered[i+1]) >= 0 {
			t.Fatalf("keys %d and %d out of order: %v vs %v", i, i+1, ordered[i], ordered[i+1])
		}
		if Compare(ordered[i+1], ordered[i]) <= 0 {
			t.Fatalf("compare not antisymmetric at %d", i)
		}
	}
	if Compare(ordered[0], ordered[0]) != 0 {
		t.Fatalf("compare not reflexive")
	}
}

func TestSameCell(t *testing.T) {
	a := Key{Row: "r", ColF: "f", ColQ: "q", Ts: 1}
	b := Key{Row: "r", ColF: "f", ColQ: "q", Ts: 99}
	c := Key{Row: "r", ColF: "f", ColQ: "x", Ts: 1}
	if !SameCell(a, b) || SameCell(a, c) {
		t.Fatalf("SameCell wrong")
	}
}

func TestRowRange(t *testing.T) {
	r := RowRange("b", "d")
	if !r.Contains(Key{Row: "b", Ts: 5}) {
		t.Fatalf("start row should be included")
	}
	if !r.Contains(Key{Row: "c", ColF: "zz", Ts: 0}) {
		t.Fatalf("middle row should be included")
	}
	if r.Contains(Key{Row: "d", Ts: MaxTs}) {
		t.Fatalf("end row must be exclusive")
	}
	if r.Contains(Key{Row: "a", Ts: 0}) {
		t.Fatalf("row before start included")
	}
}

func TestExactRow(t *testing.T) {
	r := ExactRow("m")
	if !r.Contains(Key{Row: "m", ColF: "f", ColQ: "q", Ts: 3}) {
		t.Fatalf("cell of row m excluded")
	}
	if r.Contains(Key{Row: "m\x00", Ts: MaxTs}) || r.Contains(Key{Row: "ma", Ts: 1}) {
		t.Fatalf("other rows included")
	}
}

func TestClipAndEmpty(t *testing.T) {
	a := RowRange("b", "f")
	b := RowRange("d", "z")
	c := a.Clip(b)
	if !c.Contains(Key{Row: "e", Ts: 1}) || c.Contains(Key{Row: "c", Ts: 1}) {
		t.Fatalf("clip wrong: %v", c)
	}
	empty := RowRange("x", "y").Clip(RowRange("a", "b"))
	if !empty.IsEmpty() {
		t.Fatalf("disjoint clip should be empty: %v", empty)
	}
}

func TestFloatCodec(t *testing.T) {
	for _, v := range []float64{0, 1, -3.5, 1e-12, 123456789.25} {
		got, ok := DecodeFloat(EncodeFloat(v))
		if !ok || got != v {
			t.Fatalf("float round trip %v → %v (%v)", v, got, ok)
		}
	}
	if _, ok := DecodeFloat(Value("junk")); ok {
		t.Fatalf("junk should not decode")
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	e := Entry{K: Key{Row: "row", ColF: "", ColQ: "колонка", Ts: -5}, V: Value{0, 1, 2, 255}}
	buf := EncodeEntry(nil, e)
	got, rest, err := DecodeEntry(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest=%d", err, len(rest))
	}
	if got.K != e.K || string(got.V) != string(e.V) {
		t.Fatalf("round trip changed entry: %v vs %v", got, e)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var entries []Entry
	for i := 0; i < 100; i++ {
		entries = append(entries, Entry{
			K: Key{
				Row:  randStr(rng),
				ColF: randStr(rng),
				ColQ: randStr(rng),
				Ts:   rng.Int63(),
			},
			V: EncodeFloat(rng.NormFloat64()),
		})
	}
	got, err := DecodeBatch(EncodeBatch(entries))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("len %d want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].K != entries[i].K || string(got[i].V) != string(entries[i].V) {
			t.Fatalf("entry %d mangled", i)
		}
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, err := DecodeBatch(nil); err == nil {
		t.Fatalf("nil batch should error")
	}
	good := EncodeBatch([]Entry{{K: Key{Row: "r"}, V: Value("1")}})
	if _, err := DecodeBatch(good[:len(good)-1]); err == nil {
		t.Fatalf("truncated batch should error")
	}
	if _, err := DecodeBatch(append(good, 0)); err == nil {
		t.Fatalf("trailing bytes should error")
	}
}

func randStr(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// Property: Compare defines a total order consistent with sort.Slice.
func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]Key, 20)
		for i := range keys {
			keys[i] = Key{
				Row:  string(rune('a' + rng.Intn(3))),
				ColF: string(rune('a' + rng.Intn(2))),
				ColQ: string(rune('a' + rng.Intn(2))),
				Ts:   int64(rng.Intn(4)),
			}
		}
		sort.Slice(keys, func(i, j int) bool { return Compare(keys[i], keys[j]) < 0 })
		for i := 0; i+1 < len(keys); i++ {
			if Compare(keys[i], keys[i+1]) > 0 {
				return false
			}
			// transitivity spot check
			if i+2 < len(keys) && Compare(keys[i], keys[i+2]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: codec round-trips arbitrary strings and payloads.
func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(row, cf, cq string, ts int64, v []byte) bool {
		e := Entry{K: Key{Row: row, ColF: cf, ColQ: cq, Ts: ts}, V: v}
		got, rest, err := DecodeEntry(EncodeEntry(nil, e))
		if err != nil || len(rest) != 0 {
			return false
		}
		return got.K == e.K && string(got.V) == string(e.V)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRowBand(t *testing.T) {
	// A plain row range is already whole-row: band = itself.
	r := RowRange("b", "d").RowBand()
	if !r.Contains(Key{Row: "b", Ts: 5}) || !r.Contains(Key{Row: "c", Ts: 0}) {
		t.Fatalf("band excludes rows the range covers")
	}
	if r.Contains(Key{Row: "d", Ts: MaxTs}) {
		t.Fatalf("band includes the excluded end row")
	}
	// A range cutting row "d" mid-row must widen to include all of "d".
	cut := Range{
		Start:    Key{Row: "b", Ts: MaxTs},
		HasStart: true,
		End:      Key{Row: "d", ColQ: "m", Ts: 7},
		HasEnd:   true,
	}
	band := cut.RowBand()
	if !band.Contains(Key{Row: "d", ColQ: "z", Ts: 0}) {
		t.Fatalf("band lost the tail of the cut row")
	}
	if band.Contains(Key{Row: "d\x00", Ts: MaxTs}) {
		t.Fatalf("band overshot the cut row")
	}
	// Unbounded sides stay unbounded.
	open := Range{}.RowBand()
	if open.HasStart || open.HasEnd {
		t.Fatalf("full range grew bounds: %v", open)
	}
}

func TestCoalesceRanges(t *testing.T) {
	got := CoalesceRanges([]Range{
		RowRange("m", "p"),
		RowRange("a", "c"),
		RowRange("b", "d"), // overlaps [a,c)
		RowRange("d", "f"), // touches [b,d)
		RowRange("x", "x"), // empty: dropped
	})
	if len(got) != 2 {
		t.Fatalf("coalesced to %d ranges, want 2: %v", len(got), got)
	}
	if got[0].Start.Row != "a" || got[0].End.Row != "f" {
		t.Fatalf("first range = %v, want [a, f)", got[0])
	}
	if got[1].Start.Row != "m" || got[1].End.Row != "p" {
		t.Fatalf("second range = %v, want [m, p)", got[1])
	}
	// All empty in → empty out (distinct from the nil "full range").
	if out := CoalesceRanges([]Range{RowRange("q", "q")}); len(out) != 0 {
		t.Fatalf("all-empty input coalesced to %v", out)
	}
	// An unbounded end swallows everything after it.
	open := CoalesceRanges([]Range{
		RowRange("c", ""),
		RowRange("d", "e"),
		RowRange("a", "b"),
	})
	if len(open) != 2 || open[1].HasEnd {
		t.Fatalf("open-ended coalesce = %v", open)
	}
}
