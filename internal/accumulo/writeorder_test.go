package accumulo

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"graphulo/internal/skv"
	"graphulo/internal/transport"
)

// recordingHandler notes the start row of every write request in the
// order the tablet servers receive them, then serves it.
type recordingHandler struct {
	transport.Handler
	mu     sync.Mutex
	starts []string
}

func (r *recordingHandler) Call(op byte, req []byte) ([]byte, error) {
	if op == opWrite {
		if wr, err := decodeWriteReq(req); err == nil {
			r.mu.Lock()
			r.starts = append(r.starts, wr.start)
			r.mu.Unlock()
		}
	}
	return r.Handler.Call(op, req)
}

// TestWriteReachesTabletsInTabletOrder: one batch spanning all four
// tablets is shipped in ascending tablet order on every run — never in
// the order a map happened to range — and an unsorted batch lands the
// same cells a sorted one does.
func TestWriteReachesTabletsInTabletOrder(t *testing.T) {
	mc := NewMiniCluster(Config{TabletServers: 2})
	defer mc.Close()
	conn := mc.Connector()
	splits := []string{"r25", "r50", "r75"}
	mustCreate(t, conn, "T", splits...)
	mustCreate(t, conn, "Tsorted", splits...)

	// Route T's tablets through an endpoint whose handler records.
	rec := &recordingHandler{Handler: &clusterHandler{mc: mc}}
	srv, err := mc.tr.Listen("", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	meta, err := mc.getTable("T")
	if err != nil {
		t.Fatal(err)
	}
	meta.mu.Lock()
	for _, tr := range meta.tablets {
		tr.endpoint = srv.Addr()
	}
	meta.mu.Unlock()

	var batch []skv.Entry
	for i := 0; i < 100; i++ {
		batch = append(batch, skv.Entry{
			K: skv.Key{Row: fmt.Sprintf("r%02d", i), ColQ: "c"},
			V: skv.EncodeFloat(float64(i + 1)),
		})
	}
	if err := mc.write("Tsorted", batch, nil); err != nil {
		t.Fatal(err)
	}
	want := scanFloats(t, conn, "Tsorted")
	if len(want) != 100 {
		t.Fatalf("sorted batch landed %d cells, want 100", len(want))
	}

	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 50; run++ {
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		rec.starts = rec.starts[:0]
		if err := mc.write("T", batch, nil); err != nil {
			t.Fatal(err)
		}
		if got := rec.starts; !reflect.DeepEqual(got, []string{"", "r25", "r50", "r75"}) {
			t.Fatalf("run %d: tablets written in order %q, want ascending", run, got)
		}
		// T keeps one version per cell, so rewriting the same values in a
		// different order must read back identically every time.
		if got := scanFloats(t, conn, "T"); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: unsorted batch landed %d cells that differ from the sorted batch's %d", run, len(got), len(want))
		}
	}
}
