package main

import (
	"flag"
	"strings"
	"testing"
)

// TestBandFlagsRefusedWhereIgnored: a band flag reaches a kernel only
// through mult, trace (all four) and bfs (the row band). Every other
// subcommand of the usage line given a band flag must fail, naming the
// flag and the subcommands that honour it, instead of running on the
// whole graph.
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
	for _, alg := range strings.Fields(algorithms) {
		for _, name := range []string{"row-start", "row-end", "colq-start", "colq-end"} {
			t.Run(alg+"/"+name, func(t *testing.T) {
				if err := flag.Set(name, "v00000003"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					flag.Set(name, "")
					*useDB = false
				})
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
