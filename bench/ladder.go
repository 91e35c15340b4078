package main

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"graphulo"
	"graphulo/internal/accumulo"
	"graphulo/internal/assoc"
	"graphulo/internal/cache"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/rfile"
	"graphulo/internal/sched"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/store"
	"graphulo/internal/tablet"
	"graphulo/internal/transport"
	"graphulo/internal/wal"
)

// The ladder times each layer's public functions in isolation, outside
// in, on entries sampled from the workload's own table. Its unit costs
// are what the traced run multiplies the workload's counts by.

const (
	ladderSample   = 20000 // entries sampled from the workload's table
	ladderBatch    = 1000  // entries per codec / WAL / tablet-write batch
	twoTableMaxPP  = 100000
	streamChunk    = 64 << 10
	streamChunks   = 16
	seekSampleRows = 200
)

// heapObjects reads the cumulative count of heap allocations.
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rate calls fn, which handles n items per call, for about budget after
// one warm-up call, and returns items per second and heap allocations
// per item.
func rate(budget time.Duration, n int, fn func() error) (perSec, allocsPerItem float64, err error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	objs, start, calls := heapObjects(), time.Now(), 0
	for calls == 0 || time.Since(start) < budget {
		if err := fn(); err != nil {
			return 0, 0, err
		}
		calls++
	}
	items := float64(calls) * float64(n)
	return items / time.Since(start).Seconds(), float64(heapObjects()-objs) / items, nil
}

func drain(it iterator.SKVI) (n int, err error) {
	if err := it.Seek(skv.FullRange()); err != nil {
		return 0, err
	}
	for it.HasTop() {
		n++
		if err := it.Next(); err != nil {
			return n, err
		}
	}
	return n, nil
}

func drainFn(it iterator.SKVI) func() error {
	return func() error { _, err := drain(it); return err }
}

// memEnv is the in-memory iterator.Env the TwoTable/RemoteWrite rung
// runs against: remote scans read a slice, writes are counted and
// dropped.
type memEnv struct {
	remote          []skv.Entry
	written, folded int
}

func (e *memEnv) OpenScanner(string, skv.Range) (iterator.SKVI, error) {
	return iterator.NewSliceIter(e.remote), nil
}
func (e *memEnv) WriteEntries(_ string, entries []skv.Entry) error {
	e.written += len(entries)
	return nil
}
func (e *memEnv) CountRangePruned(int) {}
func (e *memEnv) CountFolded(n int)    { e.folded += n }

// echo is the transport rung's handler: Call returns its request,
// Stream sends it streamChunks times.
type echo struct{}

func (echo) Call(_ byte, req []byte) ([]byte, error) { return req, nil }
func (echo) Stream(_ byte, req []byte, send func([]byte) error) error {
	for i := 0; i < streamChunks; i++ {
		if err := send(req); err != nil {
			return err
		}
	}
	return nil
}

// ladder runs every rung over the sampled entries (sorted, non-empty)
// and returns the per-layer unit metrics by name. tmp is scratch disk.
func ladder(entries []skv.Entry, tmp string, budget time.Duration) (map[string]float64, error) {
	defer os.RemoveAll(tmp)
	out := map[string]float64{}
	// rung records a rate rung under <name>_eps (or the given rate
	// suffix) and <name>_allocs.
	rung := func(name, suffix string, n int, fn func() error) error {
		perSec, allocs, err := rate(budget, n, fn)
		out[name+suffix] = perSec
		out[name+"_allocs"] = allocs
		return err
	}
	batch := entries[:min(ladderBatch, len(entries))]
	n := len(entries)

	// skv: the wire and WAL codec.
	encoded := skv.EncodeBatch(batch)
	if err := rung("skv.encode", "_eps", len(batch), func() error { encoded = skv.EncodeBatch(batch); return nil }); err != nil {
		return nil, err
	}
	if err := rung("skv.decode", "_eps", len(batch), func() error { _, err := skv.DecodeBatch(encoded); return err }); err != nil {
		return nil, err
	}

	// wal: append without sync, the flush policy every workload uses.
	log, err := wal.Open(filepath.Join(tmp, "wal"), "ladder", wal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	err = rung("wal.append", "_eps", len(batch), func() error { return log.Append(batch) })
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// rfile: write, then scan with the block cache off and on.
	rf := filepath.Join(tmp, "ladder.rf")
	if err := rung("rfile.write", "_eps", n, func() error { return rfile.WriteAll(rf, entries, rfile.WriterOptions{}) }); err != nil {
		return nil, err
	}
	cold, err := rfile.Open(rf)
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	if err := rung("rfile.scan_cold", "_eps", n, func() error { _, err := drain(cold.Iter()); return err }); err != nil {
		return nil, err
	}
	bc := cache.New(256 << 20)
	warm, err := rfile.OpenWithOptions(rf, rfile.ReaderOptions{Cache: bc})
	if err != nil {
		return nil, err
	}
	defer warm.Close()
	if err := rung("rfile.scan_warm", "_eps", n, func() error { _, err := drain(warm.Iter()); return err }); err != nil {
		return nil, err
	}
	lookups, seeks := bc.Hits()+bc.Misses(), 0
	for i := 0; i < n && seeks < seekSampleRows; i += max(1, n/seekSampleRows) {
		it := warm.Iter()
		if err := it.Seek(skv.ExactRow(entries[i].K.Row)); err != nil {
			return nil, err
		}
		for it.HasTop() {
			if err := it.Next(); err != nil {
				return nil, err
			}
		}
		seeks++
	}
	out["rfile.blocks_per_seek"] = float64(bc.Hits()+bc.Misses()-lookups) / float64(seeks)

	// tablet: memtable insert, and a merged scan over memtable + 4 runs.
	if err := rung("tablet.write", "_eps", n, func() error {
		t := tablet.New("", "", n+1, 1)
		for lo := 0; lo < n; lo += ladderBatch {
			if err := t.Write(entries[lo:min(lo+ladderBatch, n)]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	parts := make([][]skv.Entry, 5)
	for i, e := range entries {
		parts[i%5] = append(parts[i%5], e)
	}
	tab := tablet.New("", "", n+1, 1)
	for i, p := range parts {
		if err := tab.Write(p); err != nil {
			return nil, err
		}
		if i < 4 {
			if err := tab.MinorCompact(nil); err != nil {
				return nil, err
			}
		}
	}
	if err := rung("tablet.scan", "_eps", n, func() error { _, err := drain(tab.Snapshot()); return err }); err != nil {
		return nil, err
	}

	// store: a minor compaction's rfile write plus manifest commit.
	dir, err := store.Open(filepath.Join(tmp, "store"), store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	stores, err := dir.CreateTable("ladder", nil, nil, [][2]string{{"", ""}})
	if err != nil {
		return nil, err
	}
	err = rung("store.flush", "_eps", n, func() error {
		rd, err := stores[0].Flush(entries, 0)
		if err != nil {
			return err
		}
		return rd.Close()
	})
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// iterator: 4-way merge, the default table stack, and the multiply
	// pair over an in-memory env.
	quarters := make([]iterator.SKVI, 4)
	for q := range quarters {
		var part []skv.Entry
		for i := q; i < n; i += 4 {
			part = append(part, entries[i])
		}
		quarters[q] = iterator.NewSliceIter(part)
	}
	if err := rung("iterator.merge", "_eps", n, drainFn(iterator.NewMergeIter(quarters...))); err != nil {
		return nil, err
	}
	stack, err := iterator.BuildStack(iterator.NewSliceIter(entries),
		[]iterator.Setting{{Name: "versioning", Priority: 5}, {Name: "sum", Priority: 10}}, nil)
	if err != nil {
		return nil, err
	}
	if err := rung("iterator.stack", "_eps", n, drainFn(stack)); err != nil {
		return nil, err
	}
	operand, pp := squarePrefix(entries, twoTableMaxPP)
	env := &memEnv{remote: operand}
	if err := rung("iterator.twotable", "_pps", pp, func() error {
		tt := iterator.NewTwoTableIterator(iterator.NewSliceIter(operand),
			iterator.NewRemoteSourceIterator("AT", env), semiring.PlusTimes)
		sink := iterator.NewPreAggRemoteWriteIterator(tt, "C", 0, plan.DefaultPreAggBytes, semiring.PlusTimes, env)
		return sink.Seek(skv.FullRange())
	}); err != nil {
		return nil, err
	}
	out["iterator.twotable_fold_ratio"] = float64(env.folded) / float64(env.folded+env.written)

	// transport: unary round trip and streamed bytes, in-process and tcp.
	small, chunk := make([]byte, 16), make([]byte, streamChunk)
	for _, medium := range []struct {
		name string
		tr   transport.Transport
	}{{"inproc", transport.NewInProc()}, {"tcp", transport.NewTCP()}} {
		name, tr := medium.name, medium.tr
		srv, err := tr.Listen("", echo{})
		if err != nil {
			return nil, err
		}
		conn, err := tr.Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		calls, _, err := rate(budget, 1, func() error { _, err := conn.Call(1, small); return err })
		if err != nil {
			return nil, err
		}
		out["transport."+name+"_rtt_us"] = 1e6 / calls
		bytesPerSec, _, err := rate(budget, streamChunk*streamChunks, func() error {
			st, err := conn.OpenStream(1, chunk)
			if err != nil {
				return err
			}
			defer st.Close()
			for {
				if _, err := st.Recv(); errors.Is(err, io.EOF) {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
		if err != nil {
			return nil, err
		}
		out["transport."+name+"_stream_mbps"] = bytesPerSec / 1e6
		if err := tr.Close(); err != nil {
			return nil, err
		}
	}

	// accumulo: the client's scanner and batch writer against an
	// in-memory two-server cluster.
	db, err := graphulo.Open(graphulo.ClusterConfig{TabletServers: 2})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	conn := db.Connector()
	write := func(table string) func() error {
		return func() error {
			w, err := conn.CreateBatchWriter(table, accumulo.BatchWriterConfig{})
			if err != nil {
				return err
			}
			for _, e := range entries {
				if err := w.Put(e.K.Row, e.K.ColF, e.K.ColQ, e.V); err != nil {
					return err
				}
			}
			return w.Close()
		}
	}
	for _, t := range []string{"scanned", "written"} {
		if err := conn.TableOperations().Create(t); err != nil {
			return nil, err
		}
	}
	if err := write("scanned")(); err != nil {
		return nil, err
	}
	if err := rung("accumulo.scan", "_eps", n, func() error {
		got, err := countEntries(db, "scanned")
		if err == nil && got != n {
			err = errors.New("ladder: scan lost entries")
		}
		return err
	}); err != nil {
		return nil, err
	}
	if err := rung("accumulo.write", "_eps", n, write("written")); err != nil {
		return nil, err
	}

	// plan, sched, assoc: compile one kTruss round, admit one query,
	// fold a scanned stream client-side.
	band := schema.EdgeBand()
	round := plan.CollectFold(plan.MultBanded(plan.Scan("G", plan.Constraint{Families: band}), "G", "plus.times", band), "plus.times")
	compiles, _, err := rate(budget, 1, func() error {
		_, err := plan.Compile(round, plan.Options{Kernel: "kTruss", ScratchBase: "s", TraceID: "0"})
		return err
	})
	if err != nil {
		return nil, err
	}
	out["plan.compile_us"] = 1e6 / compiles
	sc := sched.New(sched.Config{})
	admits, _, err := rate(budget, 1, func() error {
		release, _, err := sc.Admit("bench")
		if err == nil {
			release()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out["sched.admit_ns"] = 1e9 / admits
	if err := rung("assoc.fold", "_eps", n, func() error {
		b := assoc.NewBuilder(semiring.PlusTimes)
		for _, e := range entries {
			if v, ok := skv.DecodeFloat(e.V); ok {
				b.Add(e.K.Row, e.K.ColQ, v)
			}
		}
		b.Build()
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// squarePrefix returns the longest prefix of entries whose self-multiply
// forms at most maxPP partial products, and that product count. It cuts
// at row boundaries, except that a first row too long on its own is
// truncated.
func squarePrefix(entries []skv.Entry, maxPP int) ([]skv.Entry, int) {
	pp, end := 0, 0
	for lo := 0; lo < len(entries); {
		hi := lo
		for hi < len(entries) && entries[hi].K.Row == entries[lo].K.Row {
			hi++
		}
		d := hi - lo
		if pp+d*d > maxPP {
			if end == 0 {
				d = int(math.Sqrt(float64(maxPP)))
				return entries[:d], d * d
			}
			break
		}
		pp, end, lo = pp+d*d, hi, hi
	}
	return entries[:end], pp
}
