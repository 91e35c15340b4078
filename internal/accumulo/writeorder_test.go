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

// recording is the log a cluster's recordingHandlers share: the start
// row of every write request in the order the tablet servers receive
// them, and every data-plane exchange with its response frames.
type recording struct {
	mu        sync.Mutex
	starts    []string
	exchanges []exchange
}

// exchange is one served request: its op, the response payloads (one for
// a unary call, the stream's frames for a scan) and the handler's error.
type exchange struct {
	op     byte
	frames [][]byte
	err    error
}

func (l *recording) add(x exchange) {
	l.mu.Lock()
	l.exchanges = append(l.exchanges, x)
	l.mu.Unlock()
}

// recordingHandler logs every request its tablet server is sent, and
// what the server answers, then serves it.
type recordingHandler struct {
	transport.Handler
	log *recording
}

func (r *recordingHandler) Call(op byte, req []byte) ([]byte, error) {
	if op == opWrite {
		if hdr, _, err := decodeCall(op, req); err == nil {
			r.log.mu.Lock()
			r.log.starts = append(r.log.starts, hdr.start)
			r.log.mu.Unlock()
		}
	}
	resp, err := r.Handler.Call(op, req)
	r.log.add(exchange{op: op, frames: [][]byte{resp}, err: err})
	return resp, err
}

func (r *recordingHandler) Stream(op byte, req []byte, send func([]byte) error) error {
	x := exchange{op: op}
	x.err = r.Handler.Stream(op, req, func(frame []byte) error {
		x.frames = append(x.frames, append([]byte(nil), frame...))
		return send(frame)
	})
	r.log.add(x)
	return x.err
}

// recordLaunched puts a recording endpoint in front of every tablet
// server mc launched; tables created afterwards route through them.
func recordLaunched(t *testing.T, mc *MiniCluster) *recording {
	t.Helper()
	log := &recording{}
	for i, s := range mc.servers {
		srv, err := mc.tr.Listen("", &recordingHandler{Handler: &tabletHandler{s: s}, log: log})
		if err != nil {
			t.Fatal(err)
		}
		mc.endpoints[i] = srv.Addr()
	}
	return log
}

// TestWriteReachesTabletsInTabletOrder: one batch spanning all four
// tablets is shipped in ascending tablet order on every run — never in
// the order a map happened to range — and an unsorted batch lands the
// same cells a sorted one does.
func TestWriteReachesTabletsInTabletOrder(t *testing.T) {
	mc := NewMiniCluster(Config{TabletServers: 2})
	defer mc.Close()
	rec := recordLaunched(t, mc)
	conn := mc.Connector()
	splits := []string{"r25", "r50", "r75"}
	mustCreate(t, conn, "T", splits...)
	mustCreate(t, conn, "Tsorted", splits...)

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
