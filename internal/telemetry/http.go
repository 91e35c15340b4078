package telemetry

// The opt-in telemetry HTTP endpoint served by coordinators
// (Config.MetricsAddr) and `graphulo serve` daemons (-metrics-addr):
//
//	/metrics        Prometheus text exposition: one family per row of
//	                the counter table, the registry's latency
//	                histograms, and the per-tenant families
//	/queries        JSON listing of recent and in-flight queries with
//	                their span trees
//	/debug/pprof/*  the standard Go profiling endpoints
//
// Everything is stdlib: the Prometheus rendering is hand-rolled text
// format, which scrapers accept verbatim.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts reg's telemetry endpoint on addr (host:port; :0 picks an
// ephemeral port — read it back with Addr).
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(reg)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the endpoint's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }

// NewHandler builds the endpoint's HTTP handler (for embedding in an
// existing server).
func NewHandler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(renderMetrics(reg))
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Host    string          `json:"host"`
			Queries []QuerySnapshot `json:"queries"`
		}{Host: reg.Host(), Queries: reg.Snapshot()})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// metricFamily names a counter's /metrics family and its TYPE: counters
// gain the _total suffix, every other kind is a gauge.
func metricFamily(prefix string, c Counter) (name, typ string) {
	if descs[c].kind == kindCounter {
		return prefix + descs[c].name + "_total", "counter"
	}
	return prefix + descs[c].name, "gauge"
}

// renderMetrics produces the Prometheus text exposition.
func renderMetrics(reg *Registry) []byte {
	var b strings.Builder
	counts := reg.Counts()
	for c, d := range descs {
		if d.kind == kindReadGauge && reg.reads[c] == nil {
			continue
		}
		name, typ := metricFamily("graphulo_", Counter(c))
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, d.help, name, typ, name, counts[c])
	}
	fmt.Fprintf(&b, "# TYPE graphulo_queries_total counter\n")
	fmt.Fprintf(&b, "graphulo_queries_total %d\n", reg.QueriesStarted())
	renderHist(&b, "graphulo_scan_pass_seconds",
		"Latency of tablet scan passes served by this process.", reg.ScanPass.Snapshot())
	renderHist(&b, "graphulo_write_batch_seconds",
		"Latency of write batches shipped from this process.", reg.WriteBatch.Snapshot())
	renderHist(&b, "graphulo_wal_sync_seconds",
		"Latency of WAL fsyncs issued by this process.", reg.WALSync.Snapshot())
	renderHist(&b, "graphulo_kernel_seconds",
		"End-to-end latency of kernel queries finished by this process.", reg.Kernel.Snapshot())
	renderHist(&b, "graphulo_queue_wait_seconds",
		"Time queries spent waiting for admission.", reg.QueueWait.Snapshot())
	renderTenants(&b, reg.TenantSnapshots())
	return []byte(b.String())
}

// renderTenants renders the per-tenant counter families — one labelled
// sample per tenant that has finished at least one kernel query, for the
// query count and every counter the table marks per-tenant.
func renderTenants(b *strings.Builder, tenants []TenantSnapshot) {
	if len(tenants) == 0 {
		return
	}
	family := func(name, help string, value func(TenantSnapshot) int64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range tenants {
			fmt.Fprintf(b, "%s{tenant=%q} %d\n", name, t.Tenant, value(t))
		}
	}
	family("graphulo_tenant_queries_total", "Kernel queries finished, by tenant.",
		func(t TenantSnapshot) int64 { return t.Queries })
	for c, d := range descs {
		if d.tenant {
			name, _ := metricFamily("graphulo_tenant_", Counter(c))
			family(name, strings.TrimSuffix(d.help, ".")+", by tenant.",
				func(t TenantSnapshot) int64 { return t.Counts[c] })
		}
	}
}

// renderHist renders one histogram family with cumulative le buckets.
func renderHist(b *strings.Builder, name, help string, s HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i := 0; i < NumBuckets-1; i++ {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(BucketBound(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	cum += s.Buckets[NumBuckets-1]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(
		time.Duration(s.SumNanos).Seconds(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}
