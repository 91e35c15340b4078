package accumulo

// Tests for the one tablet server: the same TabletServer code serves a
// coordinator that launched it and one that dialed it, stamps are
// assigned where the tablet lives, a split re-hosts, and Close leaves
// nothing running.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/rfile"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// eachDeployment runs fn against the three ways a coordinator reaches
// tablet servers: launched in-process, launched on TCP sockets, and
// standalone servers it dials.
func eachDeployment(t *testing.T, cfg Config, fn func(t *testing.T, mc *MiniCluster)) {
	t.Helper()
	for _, mode := range []string{"inproc", "tcp", "external"} {
		t.Run(mode, func(t *testing.T) {
			cfg := cfg
			switch mode {
			case "external":
				for i := 0; i < 2; i++ {
					srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
					if err != nil {
						t.Fatal(err)
					}
					defer srv.Close()
					cfg.Servers = append(cfg.Servers, srv.Addr())
				}
			default:
				cfg.Transport = mode
			}
			mc, err := OpenMiniCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			fn(t, mc)
		})
	}
}

// runRemoteWrite scans table in with a RemoteWrite stack into out.
func runRemoteWrite(t *testing.T, c *Connector, in, out string) {
	t.Helper()
	s, err := c.CreateScanner(in)
	if err != nil {
		t.Fatal(err)
	}
	s.AddScanIterator(iterator.Setting{Name: "remoteWrite", Priority: 40,
		Opts: map[string]string{"table": out}})
	if _, err := s.Entries(); err != nil {
		t.Fatal(err)
	}
}

// TestClientWriteAfterServerWriteWins: a versioned cell written by a
// server-side RemoteWrite and then by a client Put must read back the
// client's value — the later write carries the later stamp wherever it
// came from, because the hosting server assigns it.
func TestClientWriteAfterServerWriteWins(t *testing.T) {
	eachDeployment(t, Config{}, func(t *testing.T, mc *MiniCluster) {
		c := mc.Connector()
		mustCreate(t, c, "in")
		mustCreate(t, c, "out")
		writeCells(t, c, "in", map[string]float64{"r c": 1})
		runRemoteWrite(t, c, "in", "out")
		if got := scanFloats(t, c, "out"); got["r c"] != 1 {
			t.Fatalf("RemoteWrite landed %v in out, want r c=1", got)
		}
		writeCells(t, c, "out", map[string]float64{"r c": 2})
		if got := scanFloats(t, c, "out"); got["r c"] != 2 {
			t.Fatalf("client Put after the server-side write reads back %v, want 2", got["r c"])
		}
		// And the other way round: a server-side write after the client's.
		writeCells(t, c, "in", map[string]float64{"r c": 3})
		runRemoteWrite(t, c, "in", "out")
		if got := scanFloats(t, c, "out"); got["r c"] != 3 {
			t.Fatalf("server-side write after the client Put reads back %v, want 3", got["r c"])
		}
	})
}

// counters snapshots the Metrics counters behind DB.Metrics() and
// ScanMetrics() — not the gauges and high-water marks, which depend on
// timing, and not WireBytes, which includes the trailer frames' spans
// (random ids and wall-clock durations as varints).
func counters(m *telemetry.StatSet) map[string]int64 {
	return map[string]int64{
		"RPCs":                  m.Get(telemetry.RPCs),
		"EntriesWritten":        m.Get(telemetry.EntriesWritten),
		"EntriesScanned":        m.Get(telemetry.EntriesScanned),
		"ScansStarted":          m.Get(telemetry.ScansStarted),
		"TabletScans":           m.Get(telemetry.TabletScans),
		"TabletsPrunedByRange":  m.Get(telemetry.TabletsPrunedByRange),
		"EntriesPrunedByRange":  m.Get(telemetry.EntriesPrunedByRange),
		"PartialProductsFolded": m.Get(telemetry.PartialProductsFolded),
	}
}

// TestLaunchedAndStandaloneServeIdentically runs one scripted sequence —
// host/assign, write, scan, scan with a nested RemoteWrite, drop —
// against a launched and a standalone TabletServer behind a recording
// endpoint. Both must answer every write and scan with the same frames
// (entry batches byte for byte, stamps included; trailers by their
// counters, since spans carry wall-clock times) and move the
// coordinator's Metrics by the same amounts.
func TestLaunchedAndStandaloneServeIdentically(t *testing.T) {
	cfg := Config{TabletServers: 1, ScanParallelism: 1, WireBatch: 4}

	launched, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer launched.Close()
	launchedLog := recordLaunched(t, launched)

	srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	standaloneLog := &recording{}
	front, err := srv.tr.Listen("", &recordingHandler{Handler: &tabletHandler{s: srv}, log: standaloneLog})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Servers = []string{front.Addr()}
	dialed, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()

	script := func(mc *MiniCluster) map[string]int64 {
		c := mc.Connector()
		mustCreate(t, c, "in", "m")
		mustCreate(t, c, "out")
		cells := map[string]float64{}
		for i := 0; i < 20; i++ {
			cells[fmt.Sprintf("%c c%d", 'a'+i, i%3)] = float64(i + 1)
		}
		writeCells(t, c, "in", cells)
		if got := scanFloats(t, c, "in"); !reflect.DeepEqual(got, cells) {
			t.Fatalf("scan of in = %v, want %v", got, cells)
		}
		runRemoteWrite(t, c, "in", "out")
		if got := scanFloats(t, c, "out"); !reflect.DeepEqual(got, cells) {
			t.Fatalf("scan of out = %v, want %v", got, cells)
		}
		for _, table := range []string{"in", "out"} {
			if err := c.TableOperations().Delete(table); err != nil {
				t.Fatal(err)
			}
		}
		return counters(&mc.tel.Stats)
	}
	launchedCounters := script(launched)
	dialedCounters := script(dialed)
	if !reflect.DeepEqual(launchedCounters, dialedCounters) {
		t.Errorf("Metrics deltas differ:\n launched   %v\n standalone %v", launchedCounters, dialedCounters)
	}

	// Only the standalone server sees assign/drop on the wire; the data
	// plane — every write and scan — must look the same.
	dataPlane := func(log *recording) []exchange {
		var out []exchange
		for _, x := range log.exchanges {
			if x.op == opWrite || x.op == opScan {
				out = append(out, x)
			}
		}
		return out
	}
	got, want := dataPlane(standaloneLog), dataPlane(launchedLog)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("standalone served %d data-plane requests, launched %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.op != w.op || (g.err == nil) != (w.err == nil) || len(g.frames) != len(w.frames) {
			t.Fatalf("request %d: standalone op %d err %v, %d frames; launched op %d err %v, %d frames",
				i, g.op, g.err, len(g.frames), w.op, w.err, len(w.frames))
		}
		for j := range w.frames {
			gf, wf := g.frames[j], w.frames[j]
			if w.op == opScan && len(wf) > 0 && wf[0] == frameTrailer {
				gt, gerr := telemetry.DecodeTrailer(gf[1:])
				wt, werr := telemetry.DecodeTrailer(wf[1:])
				if gerr != nil || werr != nil || gt.Counts != wt.Counts {
					t.Errorf("request %d trailer: standalone %v (%v), launched %v (%v)", i, gt.Counts, gerr, wt.Counts, werr)
				}
				continue
			}
			if !bytes.Equal(gf, wf) {
				t.Errorf("request %d frame %d: standalone %x, launched %x", i, j, gf, wf)
			}
		}
	}

	// Dropped tablets answer the typed not-hosted error on both.
	req := encodeScanReq(reqHeader{table: "out"}, scanReq{batch: 4})
	for name, s := range map[string]*TabletServer{"launched": launched.servers[0], "standalone": srv} {
		err := (&tabletHandler{s: s}).Stream(opScan, req, func([]byte) error { return nil })
		if !errors.Is(err, errNotHosted) {
			t.Errorf("%s: scan of a dropped tablet: err = %v, want errNotHosted", name, err)
		}
	}
}

// TestAddSplitsRehosts: after a split the old range answers the typed
// not-hosted error, both halves serve, and a scan opened before the
// split finishes on its snapshot.
func TestAddSplitsRehosts(t *testing.T) {
	mc, err := OpenMiniCluster(Config{TabletServers: 2, WireBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	c := mc.Connector()
	mustCreate(t, c, "T")
	cells := map[string]float64{}
	for i := 0; i < 26; i++ {
		cells[fmt.Sprintf("%c c", 'a'+i)] = float64(i + 1)
	}
	writeCells(t, c, "T", cells)

	// Open a scan and hold it mid-stream: with 2-entry wire batches the
	// pass on the unsplit tablet is blocked on backpressure.
	sc, err := c.CreateScanner("T")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first, ok := st.Next()
	if !ok {
		t.Fatalf("stream ended early: %v", st.Err())
	}

	if err := c.TableOperations().AddSplits("T", []string{"m"}); err != nil {
		t.Fatal(err)
	}

	seen := map[string]float64{}
	v, _ := skv.DecodeFloat(first.V)
	seen[first.K.Row+" "+first.K.ColQ] = v
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		v, _ := skv.DecodeFloat(e.V)
		seen[e.K.Row+" "+e.K.ColQ] = v
	}
	if err := st.Err(); err != nil {
		t.Fatalf("scan opened before the split failed: %v", err)
	}
	if !reflect.DeepEqual(seen, cells) {
		t.Fatalf("scan opened before the split returned %d cells, want %d", len(seen), len(cells))
	}

	// A request still routed by the old range is refused, typed.
	old := encodeScanReq(reqHeader{table: "T"}, scanReq{batch: 4})
	for i, s := range mc.servers {
		err := (&tabletHandler{s: s}).Stream(opScan, old, func([]byte) error { return nil })
		if !errors.Is(err, errNotHosted) {
			t.Errorf("server %d: scan of the pre-split range: err = %v, want errNotHosted", i, err)
		}
	}
	stale := encodeCall(opWrite, reqHeader{table: "T"}, skv.EncodeBatch(nil))
	if _, err := (&tabletHandler{s: mc.servers[0]}).Call(opWrite, stale); !errors.Is(err, errNotHosted) {
		t.Errorf("write to the pre-split range: err = %v, want errNotHosted", err)
	}

	// Both halves serve reads and writes.
	if got := scanFloats(t, c, "T"); !reflect.DeepEqual(got, cells) {
		t.Fatalf("post-split scan returned %d cells, want %d", len(got), len(cells))
	}
	writeCells(t, c, "T", map[string]float64{"b c": 100, "x c": 200})
	got := scanFloats(t, c, "T")
	if got["b c"] != 100 || got["x c"] != 200 {
		t.Fatalf("writes to the halves read back b=%v x=%v, want 100 and 200", got["b c"], got["x c"])
	}
}

// TestServerCloseLeavesNoGoroutines: closing a coordinator with launched
// servers, and a standalone server with the coordinator that dialed it,
// returns the process to the goroutine count it started from.
// settledGoroutines waits up to five seconds for the goroutine count to
// fall to want, returning the last count seen.
func settledGoroutines(want int) int {
	var n int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC() // abandoned streams release their workers in finalizers
		if n = runtime.NumGoroutine(); n <= want {
			break
		}
	}
	return n
}

func TestServerCloseLeavesNoGoroutines(t *testing.T) {
	exercise := func(mc *MiniCluster) {
		c := mc.Connector()
		mustCreate(t, c, "in", "m")
		mustCreate(t, c, "out")
		writeCells(t, c, "in", map[string]float64{"a c": 1, "z c": 2})
		runRemoteWrite(t, c, "in", "out")
		if got := scanFloats(t, c, "out"); len(got) != 2 {
			t.Fatalf("out holds %v, want 2 cells", got)
		}
	}
	for _, mode := range []string{TransportInProc, TransportTCP, "external"} {
		runtime.GC()
		before := runtime.NumGoroutine()
		cfg := Config{Transport: mode}
		var srv *TabletServer
		if mode == "external" {
			var err error
			if srv, err = ListenAndServeTablets("127.0.0.1:0", 0); err != nil {
				t.Fatal(err)
			}
			cfg = Config{Servers: []string{srv.Addr()}}
		}
		mc, err := OpenMiniCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		exercise(mc)
		if err := mc.Close(); err != nil {
			t.Fatal(err)
		}
		if srv != nil {
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if after := settledGoroutines(before); after > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before, %d after Close\n%s", mode, before, after, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestFailedRecoveryLeavesNoGoroutines: a durable directory whose second
// table holds rfiles the reader rejects fails every reopen with the
// reader's typed error, and each failed reopen unwinds what it had
// started — the tcp listeners, the metrics endpoint, the directory's
// WAL logs — so repeated attempts leave the goroutine count where it
// began.
func TestFailedRecoveryLeavesNoGoroutines(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Transport: TransportTCP, MetricsAddr: "127.0.0.1:0", MaxRunsPerTablet: 4, NoSync: true}
	mc, err := OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := mc.Connector()
	for _, table := range []string{"a", "b"} {
		mustCreate(t, c, table, "m")
		writeCells(t, c, table, map[string]float64{"a c": 1, "z c": 2})
	}
	if err := mc.Close(); err != nil { // flushes both tables to rfiles
		t.Fatal(err)
	}

	// Stamp table b's rfiles with format version 3, which the reader no
	// longer accepts; table a recovers first (tables recover in name
	// order) and is up before b fails.
	raw, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tables map[string]struct {
			Tablets []struct {
				RFiles []string `json:"rfiles"`
			} `json:"tablets"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	stamped := 0
	for _, tb := range man.Tables["b"].Tablets {
		for _, name := range tb.RFiles {
			path := filepath.Join(dir, "rf", name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Trailer: ... | u32 version | u32 magic.
			binary.LittleEndian.PutUint32(data[len(data)-8:], 3)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			stamped++
		}
	}
	if stamped == 0 {
		t.Fatal("table b has no rfiles to stamp")
	}

	for i := 0; i < 5; i++ {
		mc, err := OpenMiniCluster(cfg)
		if err == nil {
			mc.Close()
			t.Fatal("reopen over a rejected rfile succeeded")
		}
		if !errors.Is(err, rfile.ErrUnsupportedVersion) {
			t.Fatalf("reopen %d: %v, want rfile.ErrUnsupportedVersion", i, err)
		}
	}
	if after := settledGoroutines(before); after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after five failed reopens\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// TestServedPassesRetire pins that a standalone server's registry lets go
// of the passes it served: each one leaves the in-flight set for the
// bounded recent ring when it finishes, so a long-lived `graphulo serve`
// neither grows by a pass record per scan nor lists finished passes as
// running.
func TestServedPassesRetire(t *testing.T) {
	srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc, err := OpenMiniCluster(Config{Servers: []string{srv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	c := mc.Connector()
	mustCreate(t, c, "t")
	writeCells(t, c, "t", map[string]float64{"r c": 1})
	const scans = 200
	for i := 0; i < scans; i++ {
		scanFloats(t, c, "t")
	}
	snaps := srv.Telemetry().Snapshot()
	if len(snaps) == 0 || len(snaps) > 64 { // Options.MaxRecent's default
		t.Errorf("registry lists %d passes after %d scans, want 1..64", len(snaps), scans)
	}
	for _, s := range snaps {
		if !s.Done {
			t.Fatalf("pass %q still listed as in flight", s.Kernel)
		}
	}
	if got := srv.Telemetry().Stats.Get(telemetry.TabletScans); got != scans {
		t.Errorf("server counted %d tablet scans, want %d", got, scans)
	}
}
