package accumulo

// Transport failure paths: the cluster must degrade loudly, not
// silently, when tablet servers go away — a scan severed mid-stream
// surfaces through EntryStream.Err (never a hang, never a truncated
// result that looks complete), and a write batch that could not reach
// any tablet comes back retriable.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphulo/internal/skv"
	"graphulo/internal/transport"
)

// tcpCluster opens a TCP-transport cluster sized so scans span many
// wire batches.
func tcpCluster(t *testing.T) *MiniCluster {
	t.Helper()
	mc, err := OpenMiniCluster(Config{Transport: TransportTCP, TabletServers: 2, WireBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	return mc
}

func fillTable(t *testing.T, mc *MiniCluster, table string, n, valueBytes int) {
	t.Helper()
	conn := mc.Connector()
	if err := conn.TableOperations().Create(table); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter(table, BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	value := skv.Value(bytes.Repeat([]byte("v"), valueBytes))
	for i := 0; i < n; i++ {
		if err := w.Put(fmt.Sprintf("r%05d", i), "", "c", value); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConnDropMidScanSurfacesError severs every tablet server while a
// TCP scan is mid-stream: the stream must terminate with a non-nil
// Err() — not hang waiting for batches, and not end cleanly as if the
// truncated prefix were the whole table.
func TestConnDropMidScanSurfacesError(t *testing.T) {
	mc := tcpCluster(t)
	// The table must dwarf what kernel socket buffers can absorb, so the
	// server is genuinely blocked mid-stream when the drop happens —
	// otherwise the whole scan is already buffered client-side and ends
	// cleanly. ~20k × 512B ≈ 10 MiB.
	const total = 20000
	fillTable(t, mc, "T", total, 512)

	sc, err := mc.Connector().CreateScanner("T")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seen := 0
	for ; seen < 5; seen++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("stream died after %d entries: %v", seen, st.Err())
		}
	}
	// Sever the servers mid-stream. Close waits out the in-flight scan
	// pass, so a deadlock here would also fail the test (via timeout).
	closed := make(chan struct{})
	go func() {
		for _, srv := range mc.servers {
			srv.Close()
		}
		close(closed)
	}()
	// Drain: batches already relayed may still arrive, then the broken
	// connection must surface as an error.
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		seen++
	}
	if st.Err() == nil {
		t.Fatalf("scan of %d entries returned %d and ended cleanly despite the servers dropping mid-stream", total, seen)
	}
	if seen >= total {
		t.Fatalf("scan completed (%d entries) before the drop took effect; scenario needs a bigger table", seen)
	}
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("server Close did not return — scan pass leaked")
	}
}

// TestServerShutdownWriteIsRetriable stops the tablet servers and then
// flushes a write batch: the failure must be ErrTransient — the request
// never reached a tablet, so the caller (or the BatchWriter's own retry
// loop) may safely retry against a recovered cluster.
func TestServerShutdownWriteIsRetriable(t *testing.T) {
	mc := tcpCluster(t)
	fillTable(t, mc, "W", 10, 8) // also warms the connection pool
	for _, srv := range mc.servers {
		srv.Close()
	}
	w, err := mc.Connector().CreateBatchWriter("W", BatchWriterConfig{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PutFloat("r9", "", "c", 1); err != nil {
		t.Fatal(err)
	}
	err = w.Flush()
	if err == nil {
		t.Fatal("write batch succeeded with every tablet server down")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("write failure is not retriable: %v", err)
	}
	if !errors.Is(err, transport.ErrUnavailable) {
		t.Fatalf("write failure does not carry the transport cause: %v", err)
	}
}

// TestScanOrderAcrossTransports pins that a multi-tablet TCP scan
// returns exactly the same globally sorted entries as the in-process
// wire, timestamps included (client-stamped writes are deterministic).
func TestScanOrderAcrossTransports(t *testing.T) {
	collect := func(tr string) []skv.Entry {
		mc, err := OpenMiniCluster(Config{Transport: tr, TabletServers: 3, WireBatch: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer mc.Close()
		conn := mc.Connector()
		if err := conn.TableOperations().CreateWithSplits("S", []string{"r00100", "r00200", "r00300"}); err != nil {
			t.Fatal(err)
		}
		w, err := conn.CreateBatchWriter("S", BatchWriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := w.PutFloat(fmt.Sprintf("r%05d", i), "f", "c", float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		sc, err := conn.CreateScanner("S")
		if err != nil {
			t.Fatal(err)
		}
		entries, err := sc.Entries()
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	inproc := collect(TransportInProc)
	tcp := collect(TransportTCP)
	if len(inproc) != 400 || len(tcp) != 400 {
		t.Fatalf("entry counts: inproc %d tcp %d, want 400", len(inproc), len(tcp))
	}
	for i := range inproc {
		if skv.Compare(inproc[i].K, tcp[i].K) != 0 || string(inproc[i].V) != string(tcp[i].V) {
			t.Fatalf("entry %d differs: inproc %v=%q tcp %v=%q", i,
				inproc[i].K, inproc[i].V, tcp[i].K, tcp[i].V)
		}
	}
}

// TestWireDecodeRejectsHostileCounts pins that a corrupt (or hostile)
// entry batch whose count exceeds the payload fails with a decode error
// instead of a huge-allocation panic that would kill the server. The
// request decoders' hostile counts are inputs of TestRequestCodecEveryOp.
func TestWireDecodeRejectsHostileCounts(t *testing.T) {
	batch := binary.AppendUvarint(nil, 1<<50)
	if _, err := skv.DecodeBatch(batch); err == nil {
		t.Error("skv.DecodeBatch accepted an entry count of 1<<50")
	}
}

// TestScanReqRangeListRoundTrip pins that an empty range list — the
// full-tablet scan — crosses the codec as empty rather than growing a
// range. Multi-range requests are inputs of TestRequestCodecEveryOp.
func TestScanReqRangeListRoundTrip(t *testing.T) {
	_, empty, err := decodeScanReq(encodeScanReq(reqHeader{table: "T"}, scanReq{batch: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.ranges) != 0 {
		t.Errorf("empty range list round-tripped to %v", empty.ranges)
	}
}

// TestTransportConfigValidation pins the config surface's error cases.
func TestTransportConfigValidation(t *testing.T) {
	if _, err := OpenMiniCluster(Config{Servers: []string{"127.0.0.1:1"}, DataDir: t.TempDir()}); err == nil {
		t.Error("external servers with DataDir must be rejected")
	}
	if _, err := OpenMiniCluster(Config{Servers: []string{"127.0.0.1:1"}, Transport: TransportInProc}); err == nil {
		t.Error("external servers with the inproc transport must be rejected")
	}
	if _, err := OpenMiniCluster(Config{Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport must be rejected")
	}
	// An unreachable external server fails fast at open, not at first use.
	if _, err := OpenMiniCluster(Config{Servers: []string{"127.0.0.1:1"}}); !errors.Is(err, transport.ErrUnavailable) {
		t.Errorf("unreachable external server: err = %v, want ErrUnavailable", err)
	}
}

// TestExternalAdminOpsRejected pins that tablet-level admin operations
// fail loudly (rather than silently no-op) when tablets live in
// external server processes.
func TestExternalAdminOpsRejected(t *testing.T) {
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
	ops := mc.Connector().TableOperations()
	if err := ops.Create("X"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AddSplits("X", []string{"m"}); err == nil {
		t.Error("AddSplits must be rejected with external servers")
	}
	if err := ops.Flush("X"); err == nil {
		t.Error("Flush must be rejected with external servers")
	}
	if err := ops.Compact("X"); err == nil {
		t.Error("Compact must be rejected with external servers")
	}
	if err := ops.DeleteRows("X", "", ""); err == nil {
		t.Error("DeleteRows must be rejected with external servers")
	}
	// Delete itself is supported and must clear the hosted tablets.
	if err := ops.Delete("X"); err != nil {
		t.Fatalf("Delete with external servers: %v", err)
	}
}
