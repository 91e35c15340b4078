package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"graphulo"
	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/assoc"
	"graphulo/internal/gen"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// sizes freezes every input dimension of the five workloads. The full
// set is part of the benchmark's definition: changing it invalidates
// every recorded baseline.
type sizes struct {
	kernelScale int // RMAT scale of the in-memory kernel workloads
	bfsScale    int // RMAT scale of the durable BFS graph
	bfsMemLimit int // memtable entries per tablet while the BFS graph loads
	poolScale   int // RMAT scale of the ingest edge stream that is cycled
	batch       int // entries per ingest op
	ingestMem   int // memtable entries per tablet during ingest
	fixedOps    int // > 0: run exactly this many timed ops instead of a time budget
}

var (
	fullSizes  = sizes{kernelScale: 8, bfsScale: 12, bfsMemLimit: 4096, poolScale: 14, batch: 2000, ingestMem: 16384}
	smokeSizes = sizes{kernelScale: 6, bfsScale: 8, bfsMemLimit: 256, poolScale: 10, batch: 200, ingestMem: 64, fixedOps: 3}
)

const (
	bfsHops      = 3
	bfsMinDegree = 2
	bfsMaxDegree = 16
	bfsSeeds     = 4
	trussK       = 3
	floatTol     = 1e-9
)

// runConfig is what one workload run is parameterised by.
type runConfig struct {
	seed   uint64
	sz     sizes
	outDir string // scratch space for durable data directories and span files
}

// instance is one set-up workload: a live cluster plus the hooks the
// measuring loop drives. Only op is timed.
type instance struct {
	db *graphulo.DB
	// input describes the generated input (sizes stated beside the
	// throughput figure).
	input string
	// unit names the work unit throughput_eps counts.
	unit string
	// sampleTable is the vertex-keyed table the layer ladder samples its
	// entries from; vertices is its id space.
	sampleTable string
	vertices    int
	// serverPP is the ⊗ partial products one op forms inside the tablet
	// servers (0 for workloads that form none there).
	serverPP int64
	// durable and tcp say which storage and transport the cluster uses.
	durable, tcp bool
	// reference computes expected outputs from the in-memory reference
	// implementations; it runs once, untimed, outside set-up.
	reference func() error
	// prepare and cleanup bracket an op, untimed (nil = nothing to do).
	prepare, cleanup func(i int) error
	// op runs operation i and returns the work units it completed.
	op func(i int, rec *recorder) (units int64, err error)
	// verify checks op i's output, untimed: cell for cell against the
	// reference the first time an input is used, cheaply afterwards.
	verify func(i int) error
	// finish runs after the timed loop (nil = nothing to do).
	finish func() error
	close  func()
}

// workload is a named, documented set-up function.
type workload struct {
	name  string
	why   string
	setup func(c runConfig) (*instance, error)
}

var workloads = []workload{
	{"mult.server.s8", "server-side TableMult at RMAT scale 8: TwoTable, RemoteWrite pre-aggregation, skv codec and memtable insert, the paper's headline path", setupMult(true)},
	{"mult.client.s8", "the same product computed client-side: bypasses the iterator stack and RemoteWrite, so server-side kernel changes must not move it", setupMult(false)},
	{"ktruss.s8", "3-truss at scale 8: a multi-step fused plan with scratch tables and many short passes, where plan and per-pass overheads show", setupKTruss},
	{"ingest.durable", "2000-entry batches into a durable 4-tablet table: WAL, skip list, freeze, rfile write and compaction, so a read-side gain that costs writes shows", setupIngest},
	{"bfs.durable.s12", "3-hop filtered BFS over reopened rfiles larger than the block cache, over tcp: the seek-heavy, does-not-fit-in-cache side", setupBFS},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rmatSimple is the deduplicated undirected RMAT graph the kernel and
// BFS workloads run on.
func rmatSimple(scale int, seed uint64) gen.Graph {
	return gen.Dedup(gen.RMAT(gen.Graph500(scale, seed)))
}

// quantileSplits returns the three split rows that cut a table keyed by
// the given vertex occurrences into four equally loaded tablets. RMAT
// rows are heavily skewed towards low ids, so even id splits would put
// most entries in one tablet.
func quantileSplits(rows []int) []string {
	s := append([]int(nil), rows...)
	sort.Ints(s)
	var splits []string
	for q := 1; q <= 3; q++ {
		name := schema.VertexName(s[q*len(s)/4])
		if len(splits) == 0 || splits[len(splits)-1] != name {
			splits = append(splits, name)
		}
	}
	return splits
}

// endpoints lists every edge endpoint: the row keys of the undirected
// adjacency table, with multiplicity.
func endpoints(g gen.Graph) []int {
	rows := make([]int, 0, 2*len(g.Edges))
	for _, e := range g.Edges {
		rows = append(rows, e.U, e.V)
	}
	return rows
}

// loadGraph creates the named graph pre-split into four tablets per
// table and ingests g.
func loadGraph(db *graphulo.DB, name string, g gen.Graph) (*graphulo.TableGraph, []string, error) {
	tg, err := db.CreateGraph(name)
	if err != nil {
		return nil, nil, err
	}
	splits := quantileSplits(endpoints(g))
	a, at, deg := tg.Tables()
	ops := db.Connector().TableOperations()
	for _, t := range []string{a, at, deg} {
		if err := ops.AddSplits(t, splits); err != nil {
			return nil, nil, err
		}
	}
	return tg, splits, tg.Ingest(g)
}

// --- mult.server.s8 / mult.client.s8 / ktruss.s8 ---

// kernelGraphs is how many graphs a kernel workload rotates over, op by
// op. Power-law graphs of one scale differ by several percent in the
// work a kernel does on them; rotating makes a run's medians average
// over that instead of inheriting one graph's luck.
const kernelGraphs = 8

// kernelGraph is one of those graphs, loaded into its own table trio.
type kernelGraph struct {
	g       gen.Graph
	tg      *graphulo.TableGraph
	splits  []string
	want    *sparse.Matrix // the reference output
	pp      int64          // ⊗ partial products one op forms
	checked bool           // the cell-for-cell output check has run
}

func loadKernelGraphs(c runConfig) (*graphulo.DB, []*kernelGraph, error) {
	db, err := graphulo.Open(graphulo.ClusterConfig{TabletServers: 2})
	if err != nil {
		return nil, nil, err
	}
	graphs := make([]*kernelGraph, kernelGraphs)
	for j := range graphs {
		g := rmatSimple(c.sz.kernelScale, c.seed*kernelGraphs+uint64(j))
		tg, splits, err := loadGraph(db, fmt.Sprintf("G%d", j), g)
		if err != nil {
			return nil, nil, err
		}
		graphs[j] = &kernelGraph{g: g, tg: tg, splits: splits}
	}
	return db, graphs, nil
}

// kernelInstance fills in what the kernel workloads share. reference
// must have set every graph's want and pp before it describes them.
func kernelInstance(c runConfig, db *graphulo.DB, graphs []*kernelGraph, serverSide bool, reference func(*kernelGraph)) *instance {
	a, _, _ := graphs[0].tg.Tables()
	inst := &instance{
		db:          db,
		unit:        "⊗ partial products",
		sampleTable: a,
		vertices:    graphs[0].g.N,
		close:       func() { db.Close() },
	}
	inst.reference = func() error {
		var edges, pp, cells []int
		var sum int64
		for _, kg := range graphs {
			reference(kg)
			edges, pp, cells = append(edges, len(kg.g.Edges)), append(pp, int(kg.pp)), append(cells, kg.want.NNZ())
			sum += kg.pp
		}
		if serverSide {
			inst.serverPP = sum / int64(len(graphs))
		}
		span := func(v []int) string { sort.Ints(v); return fmt.Sprintf("%d–%d", v[0], v[len(v)-1]) }
		inst.input = fmt.Sprintf("%d RMAT scale %d graphs rotated op by op, 4 tablets per table: %s undirected edges, %s partial products → %s result cells",
			len(graphs), c.sz.kernelScale, span(edges), span(pp), span(cells))
		return nil
	}
	return inst
}

func setupMult(server bool) func(runConfig) (*instance, error) {
	return func(c runConfig) (*instance, error) {
		db, graphs, err := loadKernelGraphs(c)
		if err != nil {
			return nil, err
		}
		tops := db.Connector().TableOperations()
		const out = "C"
		var lastWritten, lastFolded int64
		inst := kernelInstance(c, db, graphs, server, func(kg *kernelGraph) {
			adj := gen.Adjacency(kg.g)
			// The table holding Aᵀ is the transpose of the table holding
			// A, so the kernel's (Aᵀ-table)ᵀ·(A-table) is A·A.
			kg.want = sparse.SpGEMM(adj, adj, semiring.PlusTimes)
			for i := 0; i < adj.Rows(); i++ {
				d := int64(adj.RowNNZ(i))
				kg.pp += d * d
			}
		})
		inst.prepare = func(i int) error { return tops.CreateWithSplits(out, graphs[i%len(graphs)].splits) }
		inst.cleanup = func(int) error { return tops.Delete(out) }
		inst.op = func(i int, rec *recorder) (int64, error) {
			kg := graphs[i%len(graphs)]
			a, at, _ := kg.tg.Tables()
			var n int
			err := rec.span("kernel", func() (err error) {
				if server {
					folded := db.ScanMetrics().PartialProductsFolded
					n, err = db.TableMult(at, a, out, "plus.times")
					lastFolded = db.ScanMetrics().PartialProductsFolded - folded
				} else {
					n, err = db.TableMultClient(at, a, out, "plus.times")
				}
				return err
			})
			lastWritten = int64(n)
			return kg.pp, err
		}
		inst.verify = func(i int) error {
			kg := graphs[i%len(graphs)]
			if lastWritten+lastFolded != kg.pp {
				return fmt.Errorf("wrote %d + folded %d partial products, want %d", lastWritten, lastFolded, kg.pp)
			}
			if kg.checked {
				return nil
			}
			kg.checked = true
			got, err := db.ReadAssoc(out)
			if err != nil {
				return err
			}
			return equalCells(got, kg.want, false)
		}
		return inst, nil
	}
}

// equalCells checks an associative array read back from a table against
// the reference matrix over vertex ids; pattern compares structure only.
func equalCells(got *assoc.Assoc, want *sparse.Matrix, pattern bool) error {
	if got.NNZ() != want.NNZ() {
		return fmt.Errorf("result has %d cells, reference %d", got.NNZ(), want.NNZ())
	}
	for _, t := range want.Triples() {
		v := got.At(schema.VertexName(t.Row), schema.VertexName(t.Col))
		if pattern {
			if v == 0 {
				return fmt.Errorf("cell (%d,%d) missing", t.Row, t.Col)
			}
		} else if math.Abs(v-t.Val) > floatTol {
			return fmt.Errorf("cell (%d,%d) = %g, reference %g", t.Row, t.Col, v, t.Val)
		}
	}
	return nil
}

func setupKTruss(c runConfig) (*instance, error) {
	db, graphs, err := loadKernelGraphs(c)
	if err != nil {
		return nil, err
	}
	var got *assoc.Assoc
	inst := kernelInstance(c, db, graphs, true, func(kg *kernelGraph) {
		adj := gen.AdjacencyPattern(kg.g)
		kg.want = algo.KTrussAdj(adj, trussK)
		kg.pp = trussWork(adj, trussK)
	})
	inst.op = func(i int, rec *recorder) (int64, error) {
		kg := graphs[i%len(graphs)]
		err := rec.span("kernel", func() (err error) {
			got, err = kg.tg.KTruss(trussK)
			return err
		})
		return kg.pp, err
	}
	inst.verify = func(i int) error {
		kg := graphs[i%len(graphs)]
		if kg.checked {
			if got.NNZ() != kg.want.NNZ() {
				return fmt.Errorf("truss has %d cells, reference %d", got.NNZ(), kg.want.NNZ())
			}
			return nil
		}
		kg.checked = true
		return equalCells(got, kg.want, true)
	}
	return inst, nil
}

// trussWork replays the table kernel's peel loop in memory to count the
// ⊗ partial products it must form: each round squares the surviving
// symmetric adjacency, which costs Σ deg² products.
func trussWork(adj *sparse.Matrix, k int) (pp int64) {
	cur := adj
	for {
		for i := 0; i < cur.Rows(); i++ {
			d := int64(cur.RowNNZ(i))
			pp += d * d
		}
		sq := sparse.SpGEMM(cur, cur, semiring.PlusTimes)
		var keep []sparse.Triple
		for _, t := range cur.Triples() {
			if sq.At(t.Row, t.Col) >= float64(k-2) {
				keep = append(keep, t)
			}
		}
		if len(keep) == cur.NNZ() {
			return pp
		}
		cur = sparse.NewFromTriples(cur.Rows(), cur.Cols(), keep, semiring.PlusTimes)
	}
}

// --- ingest.durable ---

func setupIngest(c runConfig) (*instance, error) {
	pool := gen.RMAT(gen.Graph500(c.sz.poolScale, c.seed)).Edges
	dir, err := os.MkdirTemp(c.outDir, "ingest-")
	if err != nil {
		return nil, err
	}
	// Stated flush policy: NoSync, because fsync latency in a sandbox is
	// noise; the WAL is still written.
	cfg := graphulo.ClusterConfig{TabletServers: 2, DataDir: dir, NoSync: true,
		MemLimit: c.sz.ingestMem, MaxRunsPerTablet: 4}
	var db *graphulo.DB
	fail := func(err error) (*instance, error) {
		if db != nil {
			db.Close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	if db, err = graphulo.Open(cfg); err != nil {
		return fail(err)
	}
	const table = "I"
	rows := make([]int, len(pool))
	for i, e := range pool {
		rows[i] = e.U
	}
	if err := db.Connector().TableOperations().CreateWithSplits(table, quantileSplits(rows)); err != nil {
		return fail(err)
	}
	w, err := db.Connector().CreateBatchWriter(table, accumulo.BatchWriterConfig{MaxBufferEntries: c.sz.batch + 1})
	if err != nil {
		return fail(err)
	}
	one := []byte("1")
	seq := 0 // entries acknowledged so far; also makes every key unique
	inst := &instance{
		db:          db,
		input:       fmt.Sprintf("RMAT scale %d edge stream (%d edges, duplicates kept, cycled), %d entries per op", c.sz.poolScale, len(pool), c.sz.batch),
		unit:        "entries acknowledged",
		sampleTable: table,
		vertices:    1 << c.sz.poolScale,
		durable:     true,
	}
	inst.close = func() {
		inst.db.Close()
		os.RemoveAll(dir)
	}
	inst.op = func(_ int, rec *recorder) (int64, error) {
		err := rec.span("put", func() error {
			for j := 0; j < c.sz.batch; j++ {
				e := pool[(seq+j)%len(pool)]
				// The sequence suffix keeps every cell distinct, as edge
				// events with ids are, so acknowledged == stored.
				colQ := schema.VertexName(e.V) + "/" + strconv.Itoa(seq+j)
				if err := w.Put(schema.VertexName(e.U), schema.EdgeFamily, colQ, one); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		if err := rec.span("flush", w.Flush); err != nil {
			return 0, err
		}
		seq += c.sz.batch
		return int64(c.sz.batch), nil
	}
	inst.verify = func(int) error { return nil }
	inst.finish = func() error {
		if n, err := countEntries(inst.db, table); err != nil || n != seq {
			return fmt.Errorf("scan counts %d entries, acknowledged %d (err %v)", n, seq, err)
		}
		sm := inst.db.ScanMetrics()
		inst.input += fmt.Sprintf("; %d entries, %d freezes, %d compactions, %.1f MiB on disk",
			seq, sm.MemtableFreezes, sm.MajorCompactions, float64(dirBytes(dir))/(1<<20))
		if err := inst.db.Close(); err != nil {
			return err
		}
		reopened, err := graphulo.Open(cfg)
		if err != nil {
			return err
		}
		inst.db = reopened
		if n, err := countEntries(inst.db, table); err != nil || n != seq {
			return fmt.Errorf("reopened table counts %d entries, acknowledged %d (err %v)", n, seq, err)
		}
		return nil
	}
	return inst, nil
}

func countEntries(db *graphulo.DB, table string) (int, error) {
	sc, err := db.Connector().CreateScanner(table)
	if err != nil {
		return 0, err
	}
	st, err := sc.Stream()
	if err != nil {
		return 0, err
	}
	defer st.Close()
	n := 0
	for _, ok := st.Next(); ok; _, ok = st.Next() {
		n++
	}
	return n, st.Err()
}

func dirBytes(path string) (n int64) {
	filepath.Walk(path, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// --- bfs.durable.s12 ---

func setupBFS(c runConfig) (*instance, error) {
	g := rmatSimple(c.sz.bfsScale, c.seed)
	dir, err := os.MkdirTemp(c.outDir, "bfs-")
	if err != nil {
		return nil, err
	}
	var db *graphulo.DB
	fail := func(err error) (*instance, error) {
		if db != nil {
			db.Close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	// Load with a small memtable and no background compaction, so every
	// tablet ends with the same several-run layout on every run.
	load := graphulo.ClusterConfig{TabletServers: 2, DataDir: dir, NoSync: true, MemLimit: c.sz.bfsMemLimit}
	if db, err = graphulo.Open(load); err != nil {
		return fail(err)
	}
	if _, _, err := loadGraph(db, "G", g); err != nil {
		return fail(err)
	}
	if err := db.Close(); err != nil {
		return fail(err)
	}
	// A and Aᵀ hold the same cells and the degree table is small, so the
	// adjacency table is about half of the rfile bytes; the cache gets a
	// quarter of that.
	tableBytes := dirBytes(filepath.Join(dir, "rf")) / 2
	cacheBytes := tableBytes / 4
	db, err = graphulo.Open(graphulo.ClusterConfig{TabletServers: 2, DataDir: dir, NoSync: true,
		Transport: "tcp", BlockCacheBytes: cacheBytes})
	if err != nil {
		return fail(err)
	}
	tg, err := db.OpenGraph("G")
	if err != nil {
		return fail(err)
	}
	a, _, _ := tg.Tables()
	runs, _ := db.TabletRuns(a)

	deg := make([]int, g.N)
	for _, v := range endpoints(g) {
		deg[v]++
	}
	var live []int // vertices that have edges: the BFS seeds are drawn from them
	for v, d := range deg {
		if d > 0 {
			live = append(live, v)
		}
	}
	degOK := func(v int) bool { return deg[v] >= bfsMinDegree && deg[v] <= bfsMaxDegree }
	rng := gen.NewRand(c.seed ^ 0xbf5)
	var filtered *sparse.Matrix
	var names []string
	var seeds []int
	var got map[string]int
	inst := &instance{
		db: db,
		input: fmt.Sprintf("RMAT scale %d, %d undirected edges, runs per tablet %v, adjacency rfiles %.2f MiB, block cache %.2f MiB, %d hops, degree filter [%d,%d], %d seeds per op",
			c.sz.bfsScale, len(g.Edges), runs, float64(tableBytes)/(1<<20), float64(cacheBytes)/(1<<20), bfsHops, bfsMinDegree, bfsMaxDegree, bfsSeeds),
		unit:        "entries delivered to the client",
		sampleTable: a,
		vertices:    g.N,
		durable:     true,
		tcp:         true,
		close: func() {
			db.Close()
			os.RemoveAll(dir)
		},
	}
	inst.reference = func() error {
		// The kernel never discovers a vertex outside the degree band,
		// which is a BFS on the graph without the edges into such vertices.
		var ts []sparse.Triple
		for _, e := range g.Edges {
			if degOK(e.V) {
				ts = append(ts, sparse.Triple{Row: e.U, Col: e.V, Val: 1})
			}
			if degOK(e.U) {
				ts = append(ts, sparse.Triple{Row: e.V, Col: e.U, Val: 1})
			}
		}
		filtered = sparse.NewFromTriples(g.N, g.N, ts, semiring.PlusTimes)
		names = make([]string, g.N)
		for v := range names {
			names[v] = schema.VertexName(v)
		}
		return nil
	}
	inst.prepare = func(int) error {
		seeds = seeds[:0]
		for len(seeds) < bfsSeeds {
			seeds = append(seeds, live[rng.Intn(len(live))])
		}
		return nil
	}
	inst.op = func(_ int, rec *recorder) (int64, error) {
		_, _, _, before := db.Metrics()
		err := rec.span("kernel", func() (err error) {
			got, err = tg.BFSWithOptions(seeds, bfsHops, graphulo.BFSOptions{MinDegree: bfsMinDegree, MaxDegree: bfsMaxDegree})
			return err
		})
		_, _, _, after := db.Metrics()
		return after - before, err
	}
	inst.verify = func(int) error {
		// Distance from a seed set is the minimum over its members.
		level := make([]int, g.N)
		for i := range level {
			level[i] = -1
		}
		for _, s := range seeds {
			for v, l := range algo.BFSLevels(filtered, s) {
				if l >= 0 && l <= bfsHops && (level[v] < 0 || l < level[v]) {
					level[v] = l
				}
			}
		}
		reached := 0
		for v, l := range level {
			if l < 0 {
				continue
			}
			reached++
			if gl, ok := got[names[v]]; !ok || gl != l {
				return fmt.Errorf("vertex %d: level %d (visited %v), reference %d", v, gl, ok, l)
			}
		}
		if reached != len(got) {
			return fmt.Errorf("visited %d vertices, reference %d", len(got), reached)
		}
		return nil
	}
	return inst, nil
}
