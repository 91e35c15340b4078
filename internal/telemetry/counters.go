package telemetry

// The counter table. Every number the system counts is declared once,
// here: its index, its exported name and help text, what kind of number
// it is, and which surfaces treat it specially. A StatSet is one block
// of them — the process's lives on the Registry, a query's on the Query
// — and every surface (/metrics, /queries, the slow-query log, trailers,
// the per-tenant families, graphulo.QueryStats) iterates the table
// instead of naming fields. Adding a counter is one descriptor line and
// one counting call.

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// Counter indexes one slot of a StatSet. Values are wire indices
// (trailers ship them), so existing ones keep their position and new
// ones append; removing one renumbers those after it and needs a new
// trailerVersion.
type Counter int

// The declared counters.
const (
	TabletScans Counter = iota
	TabletsPrunedByRange
	EntriesPrunedByRange
	PartialProductsFolded
	WireBytes
	RPCs
	EntriesScanned
	EntriesWritten
	ScansStarted
	CacheHits
	CacheMisses
	BloomNegatives
	ColQBloomNegatives
	LocalityBlocksSkipped
	WriteWireBytes
	QueueWaitNanos
	ScratchTablesCreated
	MajorCompactions
	MajorCompactionErrors
	MemtableFreezes
	WriteStallNanos
	ScansInFlight
	MaxScansInFlight
	EntriesBuffered
	MaxEntriesBuffered
	QueriesRunning
	QueriesQueued
	MemtableInstalls
	NumCounters
)

// kind says what sort of number a Counter is, which fixes how it is
// exported and whether it travels.
type kind uint8

const (
	// kindCounter is a monotone total: a `_total` family of TYPE counter
	// on /metrics, and the only kind a trailer carries.
	kindCounter kind = iota
	// kindGauge is a level that rises and falls.
	kindGauge
	// kindHighWater is the highest value a gauge has reached; the gauge's
	// descriptor names it and StatSet.Add maintains it.
	kindHighWater
	// kindReadGauge is a gauge whose value lives in another component. It
	// is exported only by a Registry that was given a function to read it
	// (Registry.GaugeFunc).
	kindReadGauge
)

type desc struct {
	name string
	help string
	kind kind
	// high, on a gauge, is the high-water counter that tracks it.
	high Counter
	// tenant exports the counter as a per-tenant family as well, summed
	// over each tenant's finished kernel queries.
	tenant bool
	// storage marks a counter moved by the storage layer (rfile readers,
	// the block cache), which counts into the process block without
	// knowing which query a read serves; a tablet pass is attributed the
	// amount the process counter moved while it ran.
	storage bool
}

var descs = [NumCounters]desc{
	TabletScans:           {name: "tablet_scans", help: "Tablet scan passes served."},
	TabletsPrunedByRange:  {name: "tablets_pruned_by_range", help: "Tablets skipped by range push-down."},
	EntriesPrunedByRange:  {name: "entries_pruned_by_range", help: "Entries dropped by server-side range filters."},
	PartialProductsFolded: {name: "partial_products_folded", help: "Partial products absorbed by the fold stage."},
	WireBytes:             {name: "wire_bytes", help: "Payload bytes crossing the transport."},
	RPCs:                  {name: "rpcs", help: "RPC round trips (calls plus stream batches)."},
	EntriesScanned:        {name: "entries_scanned", help: "Entries returned to scan clients.", tenant: true},
	EntriesWritten:        {name: "entries_written", help: "Entries written to tablet servers.", tenant: true},
	ScansStarted:          {name: "scans_started", help: "Scans issued, client and server-side."},
	CacheHits:             {name: "cache_hits", help: "Block-cache hits on the durable read path.", storage: true},
	CacheMisses:           {name: "cache_misses", help: "Block-cache misses on the durable read path.", storage: true},
	BloomNegatives:        {name: "bloom_negatives", help: "Bloom-filter negative row lookups.", storage: true},
	ColQBloomNegatives:    {name: "colq_bloom_negatives", help: "Column-bloom negative cell lookups.", storage: true},
	LocalityBlocksSkipped: {name: "locality_blocks_skipped", help: "Rfile blocks skipped by locality-group family constraints.", storage: true},
	WriteWireBytes:        {name: "write_wire_bytes", help: "Encoded bytes of write batches shipped to tablet servers."},
	QueueWaitNanos:        {name: "queue_wait_nanos", help: "Nanoseconds spent waiting for admission.", tenant: true},
	ScratchTablesCreated:  {name: "scratch_tables_created", help: "Intermediate tables materialised by kernel drivers."},
	MajorCompactions:      {name: "major_compactions", help: "Completed major compactions."},
	MajorCompactionErrors: {name: "major_compaction_errors", help: "Failed size-tiered merges."},
	MemtableFreezes:       {name: "memtable_freezes", help: "Memtables frozen and handed to background flush."},
	MemtableInstalls:      {name: "memtable_installs", help: "Sorted write batches installed whole into a memtable."},
	WriteStallNanos:       {name: "write_stall_nanos", help: "Nanoseconds writers spent stalled on flush backpressure."},
	ScansInFlight:         {name: "scans_in_flight", help: "Tablet scan passes currently executing.", kind: kindGauge, high: MaxScansInFlight},
	MaxScansInFlight:      {name: "max_scans_in_flight", help: "High-water mark of concurrent tablet passes.", kind: kindHighWater},
	EntriesBuffered:       {name: "entries_buffered", help: "Entries held across scan pipelines.", kind: kindGauge, high: MaxEntriesBuffered},
	MaxEntriesBuffered:    {name: "max_entries_buffered", help: "High-water mark of buffered entries.", kind: kindHighWater},
	QueriesRunning:        {name: "queries_running", help: "Kernel queries holding admission slots.", kind: kindReadGauge},
	QueriesQueued:         {name: "queries_queued", help: "Kernel queries waiting for admission.", kind: kindReadGauge},
}

// String returns the counter's stable snake_case name, used in JSON
// output and metric families.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter_%d", int(c))
	}
	return descs[c].name
}

// Counts is a point-in-time snapshot of a StatSet.
type Counts [NumCounters]int64

// Get returns one counter's value.
func (k Counts) Get(c Counter) int64 { return k[c] }

// MarshalJSON renders the counts as a name → value object, so /queries
// and the slow-query log stay readable without the enum.
func (k Counts) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumCounters)
	for c, v := range k {
		m[descs[c].name] = v
	}
	return json.Marshal(m)
}

// UnmarshalJSON reverses MarshalJSON; unknown names are ignored so old
// tooling can read newer snapshots.
func (k *Counts) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for c := range k {
		k[c] = m[descs[c].name]
	}
	return nil
}

// StatSet is a lock-free counter block. A nil *StatSet counts nothing,
// so a component built without one (a bare tablet or rfile reader) calls
// it unconditionally.
type StatSet struct {
	c [NumCounters]atomic.Int64
}

// Add folds n into one counter; on a gauge it also raises the gauge's
// high-water mark.
func (s *StatSet) Add(c Counter, n int64) {
	if s == nil || c < 0 || c >= NumCounters {
		return
	}
	v := s.c[c].Add(n)
	if descs[c].kind != kindGauge {
		return
	}
	for high := &s.c[descs[c].high]; ; {
		cur := high.Load()
		if v <= cur || high.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Get reads one counter.
func (s *StatSet) Get(c Counter) int64 {
	if s == nil {
		return 0
	}
	return s.c[c].Load()
}

// Counts snapshots every counter.
func (s *StatSet) Counts() Counts {
	var k Counts
	for i := range s.c {
		k[i] = s.c[i].Load()
	}
	return k
}
