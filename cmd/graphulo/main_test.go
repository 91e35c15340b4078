package main

import (
	"flag"
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

// TestBandFlagsRefusedWhereIgnored: a band flag reaches a kernel only
// through mult, trace (all four) and bfs (the row band). Every other
// subcommand of the usage line, and every name moved to reproduce,
// given a band flag must fail, naming the flag and the subcommands
// that honour it, instead of running on the whole graph.
func TestBandFlagsRefusedWhereIgnored(t *testing.T) {
	honours := map[string][]string{
		"mult":  {"row-start", "row-end", "colq-start", "colq-end"},
		"trace": {"row-start", "row-end", "colq-start", "colq-end"},
		"bfs":   {"row-start", "row-end"},
	}
	honouredBy := map[string]string{
		"row-start":  "mult, trace, bfs",
		"row-end":    "mult, trace, bfs",
		"colq-start": "mult, trace",
		"colq-end":   "mult, trace",
	}
	for _, alg := range strings.Fields(algorithms + " " + movedToReproduce) {
		for _, name := range []string{"row-start", "row-end", "colq-start", "colq-end"} {
			t.Run(alg+"/"+name, func(t *testing.T) {
				if err := flag.Set(name, "v00000003"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { flag.Set(name, "") })
				err := run(alg)
				honoured := false
				for _, h := range honours[alg] {
					honoured = honoured || h == name
				}
				switch {
				case honoured && err != nil:
					t.Fatalf("%s -%s: %v", alg, name, err)
				case !honoured && err == nil:
					t.Fatalf("%s -%s ran, ignoring the band; want an error", alg, name)
				case !honoured && (!strings.Contains(err.Error(), "-"+name) || !strings.Contains(err.Error(), honouredBy[name])):
					t.Fatalf("%s -%s: error %q does not name the flag and %s", alg, name, err, honouredBy[name])
				}
			})
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
