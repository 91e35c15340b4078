package main

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphulo"
)

// setFlags sets command-line flags for one test and restores their
// defaults when it ends.
func setFlags(t *testing.T, kv ...string) {
	t.Helper()
	for i := 0; i < len(kv); i += 2 {
		name := kv[i]
		if err := flag.Set(name, kv[i+1]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(name, flag.Lookup(name).DefValue) })
	}
}

// parseFresh parses args into a new flag set sharing the command
// line's flag values, so the flags it names count as set for this test
// only, and restores their defaults when the test ends.
func parseFresh(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("graphulo", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	fs.Visit(func(f *flag.Flag) {
		t.Cleanup(func() { f.Value.Set(flag.Lookup(f.Name).DefValue) })
	})
	return fs
}

// TestFlagSurface pins the flags the command registers: the workload,
// the cluster, one -band, telemetry, and the per-query tenant and
// budgets. A one-query run has no admission knobs.
func TestFlagSurface(t *testing.T) {
	want := strings.Fields(`band data-dir graph k listen m metrics-addr n scale
		scan-entry-budget seed semiring servers slow-query-log slow-query-threshold
		source tenant transport write-byte-budget`)
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got = append(got, f.Name)
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("%d flags %v, want the %d %v", len(got), got, len(want), want)
	}
}

// TestBandFlagParses: -band is ROWS[,COLS] with each part START:END
// and an empty bound unbounded; anything else is an error naming -band.
func TestBandFlagParses(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want graphulo.ScanConstraint
		bad  bool
	}{
		{in: "a:b", want: graphulo.ScanConstraint{RowStart: "a", RowEnd: "b"}},
		{in: ":,c:d", want: graphulo.ScanConstraint{ColQStart: "c", ColQEnd: "d"}},
		{in: "a:b,c:d", want: graphulo.ScanConstraint{RowStart: "a", RowEnd: "b", ColQStart: "c", ColQEnd: "d"}},
		{in: "a:", want: graphulo.ScanConstraint{RowStart: "a"}},
		{in: ":b,:d", want: graphulo.ScanConstraint{RowEnd: "b", ColQEnd: "d"}},
		{in: ":,:"},
		{in: "a", bad: true},
		{in: "a:b,c", bad: true},
		{in: "a:b,c:d,e:f", bad: true},
		{in: "a:b:c", bad: true},
	} {
		got, err := parseBand(tc.in)
		switch {
		case tc.bad && (err == nil || !strings.Contains(err.Error(), "-band")):
			t.Errorf("%q: error %v, want one naming -band", tc.in, err)
		case !tc.bad && err != nil:
			t.Errorf("%q: %v", tc.in, err)
		case !tc.bad && !reflect.DeepEqual(got, tc.want):
			t.Errorf("%q parsed to %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestBandFlagsRefusedWhereIgnored: -band's rows part reaches a kernel
// only through mult, trace and bfs, its cols part only through mult and
// trace. Every other subcommand of the usage line, and every name moved
// to reproduce, given a band part must fail, naming the part and the
// subcommands that honour it, instead of running on the whole graph.
// Each part is probed at each of its bounds; a probe is named by the
// bound it sets.
func TestBandFlagsRefusedWhereIgnored(t *testing.T) {
	honouredBy := map[string][]string{
		"rows": {"mult", "trace", "bfs"},
		"cols": {"mult", "trace"},
	}
	probes := []struct{ name, part, band string }{
		{"row-start", "rows", "v00000003:"},
		{"row-end", "rows", ":v00000003"},
		{"colq-start", "cols", ":,v00000003:"},
		{"colq-end", "cols", ":,:v00000003"},
	}
	for _, alg := range strings.Fields(algorithms + " " + movedToReproduce) {
		for _, p := range probes {
			t.Run(alg+"/"+p.name, func(t *testing.T) {
				setFlags(t, "band", p.band)
				err := run(alg)
				by := honouredBy[p.part]
				honoured := slices.Contains(by, alg)
				switch {
				case honoured && err != nil:
					t.Fatalf("%s -band %s: %v", alg, p.band, err)
				case !honoured && err == nil:
					t.Fatalf("%s -band %s ran, ignoring the band; want an error", alg, p.band)
				case !honoured && (!strings.Contains(err.Error(), "-band's "+p.part+" part") || !strings.Contains(err.Error(), strings.Join(by, ", "))):
					t.Fatalf("%s -band %s: error %q does not name the %s part and %s", alg, p.band, err, p.part, strings.Join(by, ", "))
				}
			})
		}
	}
}

// TestWorkloadFlagsRefusedWhereIgnored: -scale is read only by rmat,
// -n by er and clique, -m by er. Set on the command line beside any
// other -graph, each fails naming the flag and the graphs that read it
// (`degrees -graph paper -scale 12` once ran the 5-vertex paper graph).
// -k and -seed are read by kernels too and pass with every graph.
func TestWorkloadFlagsRefusedWhereIgnored(t *testing.T) {
	readBy := map[string][]string{
		"scale": {"rmat"},
		"n":     {"er", "clique"},
		"m":     {"er"},
		"k":     {"rmat", "er", "paper", "clique"},
		"seed":  {"rmat", "er", "paper", "clique"},
	}
	for _, graph := range []string{"rmat", "er", "paper", "clique"} {
		for name, by := range readBy {
			t.Run(graph+"/"+name, func(t *testing.T) {
				err := checkWorkload(parseFresh(t, "-graph", graph, "-"+name, "6"))
				read := slices.Contains(by, graph)
				switch {
				case read && err != nil:
					t.Fatalf("-graph %s -%s: %v", graph, name, err)
				case !read && err == nil:
					t.Fatalf("-graph %s -%s passed, ignoring -%s; want an error", graph, name, name)
				case !read && (!strings.Contains(err.Error(), "-"+name+" ") || !strings.Contains(err.Error(), strings.Join(by, ", "))):
					t.Fatalf("-graph %s -%s: error %q does not name -%s and %s", graph, name, err, name, strings.Join(by, ", "))
				}
			})
		}
	}
	// Unset, the shape flags' defaults are not refused.
	if err := checkWorkload(parseFresh(t, "-graph", "paper")); err != nil {
		t.Fatalf("-graph paper alone: %v", err)
	}
}

// TestUnknownGraphRefused: a -graph that names no workload fails,
// naming the four that exist, on in-memory and table subcommands alike
// (`degrees -graph rmatt` once ran the 5-vertex paper graph).
func TestUnknownGraphRefused(t *testing.T) {
	setFlags(t, "graph", "rmatt")
	for _, alg := range []string{"degrees", "mult", "info"} {
		if err := run(alg); err == nil || !strings.Contains(err.Error(), `"rmatt"`) || !strings.Contains(err.Error(), "rmat er paper clique") {
			t.Errorf("%s -graph rmatt: error %v, want one naming rmatt and rmat er paper clique", alg, err)
		}
	}
}

// TestEverySubcommandRuns runs every subcommand of the usage line on a
// small Erdős–Rényi graph, in memory, over tcp, against two standalone
// tablet servers and on a data dir: each table kernel must agree with
// its in-memory reference. On the data dir it runs everything twice, so
// the second pass takes the reopen path and must agree too.
func TestEverySubcommandRuns(t *testing.T) {
	for _, mode := range []string{"inproc", "tcp", "servers", "data-dir"} {
		t.Run(mode, func(t *testing.T) {
			setFlags(t, "graph", "er", "n", "80", "m", "300", "k", "3")
			passes := 1
			switch mode {
			case "tcp":
				setFlags(t, "transport", "tcp")
			case "servers":
				var addrs []string
				for i := 0; i < 2; i++ {
					srv, err := graphulo.ListenAndServeTablets("127.0.0.1:0", 0)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { srv.Close() })
					addrs = append(addrs, srv.Addr())
				}
				setFlags(t, "servers", strings.Join(addrs, ","))
			case "data-dir":
				setFlags(t, "data-dir", t.TempDir())
				passes = 2
			}
			for pass := 0; pass < passes; pass++ {
				for _, alg := range strings.Fields(algorithms) {
					if err := run(alg); err != nil {
						t.Fatalf("pass %d: %s: %v", pass, alg, err)
					}
				}
			}
		})
	}
}

// TestMovedSubcommandsPointAtReproduce: a subcommand that became a
// row of reproduce's table1 fails, saying where it went.
func TestMovedSubcommandsPointAtReproduce(t *testing.T) {
	for _, alg := range strings.Fields(movedToReproduce) {
		if err := run(alg); err == nil || !strings.Contains(err.Error(), "reproduce -exp table1") {
			t.Errorf("%s: error %v, want one naming reproduce -exp table1", alg, err)
		}
	}
}

// TestSourceOutsideGraphRefused: a -source that is not a vertex is an
// error, not a panic in the in-memory reference.
func TestSourceOutsideGraphRefused(t *testing.T) {
	setFlags(t, "source", "999")
	for _, alg := range []string{"bfs", "nominate", "sssp"} {
		if err := run(alg); err == nil || !strings.Contains(err.Error(), "-source 999") {
			t.Errorf("%s: error %v, want one naming -source 999", alg, err)
		}
	}
}

// TestCheckReferenceNamesTheKernel: the reference check passes within
// its tolerance and otherwise returns an error naming the kernel — for
// a differing value, a missing key and an extra key alike.
func TestCheckReferenceNamesTheKernel(t *testing.T) {
	ref := answer{"v1": 1, "v2": 100}
	if err := checkReference("pagerank", answer{"v1": 1 + 1e-7, "v2": 100 + 1e-5}, ref, 1e-6); err != nil {
		t.Fatalf("within tolerance: %v", err)
	}
	for name, cluster := range map[string]answer{
		"value":   {"v1": 1, "v2": 101},
		"missing": {"v1": 1},
		"extra":   {"v1": 1, "v2": 100, "v3": 1},
	} {
		err := checkReference("tricount", cluster, ref, 0)
		if err == nil || !strings.HasPrefix(err.Error(), "tricount: ") {
			t.Errorf("%s: error %v, want one naming tricount", name, err)
		}
	}
}
