// Command bench is the repository's yardstick: five kernel and ingest
// workloads with gated end-to-end metrics, and a traced mode that adds a
// per-layer ladder. See README.md in this directory and BENCHMARK.json
// at the repository root.
//
//	go run ./bench                       every workload, each in a fresh process
//	go run ./bench -workload ktruss.s8   one workload; the last line is its result as JSON
//	go run ./bench -trace 1              the traced run: spans, counters, layer ladder
//	go run ./bench -compare A.json B.json
//	go run ./bench -smoke                tiny inputs, a few ops, in-process
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is the measuring time of one run; BENCHMARK.json's
// run_seconds repeats it.
const runSeconds = 18

// machine is the context a set of results was measured in.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Machine   machine           `json:"machine"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads map[string]result `json:"workloads"`
	// ServerVsClient is mult.client.s8 ÷ mult.server.s8 op_p50_ms: the
	// paper's headline ratio, above 1 when running the kernel inside the
	// tablet servers wins.
	ServerVsClient float64 `json:"server_vs_client"`
}

func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimLeft(name, "\t :"))
		}
	}
	return "unknown"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload and end with its result as one JSON line (default: all, each in a child process)")
	seed := fs.Uint64("seed", 11, "seed of every generated input (claims are developed on 11 and confirmed on 23)")
	seconds := fs.Float64("seconds", runSeconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, spans written under -out-dir")
	smoke := fs.Bool("smoke", false, "tiny inputs and 3 ops per workload, all in this process")
	outDir := fs.String("out-dir", "bench/out", "scratch directory for durable data and span files")
	out := fs.String("out", "", "also write every workload's result to this JSON file (all-workloads mode)")
	commit := fs.String("commit", "unknown", "commit id recorded in the -out file")
	compare := fs.Bool("compare", false, "compare two result sets: -compare A.json[,A2.json…] B.json[,B2.json…]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1, -seconds must be positive, and there are no positional arguments")
		return 2
	}
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, outDir: *outDir}

	if *name != "" {
		wl, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		res, err := runWorkload(wl, opts, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	set := resultSet{
		Machine: machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
			Go: runtime.Version(), Commit: *commit},
		Seed: *seed, Seconds: *seconds, Workloads: map[string]result{},
	}
	fmt.Fprintf(stdout, "machine     %d cpus, GOMAXPROCS %d, %s, %s\n\n", set.Machine.NProc, set.Machine.GOMAXPROCS, set.Machine.CPU, set.Machine.Go)
	code := 0
	for _, wl := range workloads {
		var res result
		var err error
		if *smoke {
			res, err = runWorkload(wl, opts, stdout)
		} else {
			res, err = runChild(wl.name, args, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			code = 1
		} else if !res.Correct {
			code = 1
		}
		set.Workloads[wl.name] = res
		fmt.Fprintln(stdout)
	}
	if !opts.trace && code == 0 {
		p50 := func(w string) float64 { return set.Workloads[w].Metrics["op_p50_ms"].Value }
		set.ServerVsClient = p50("mult.client.s8") / p50("mult.server.s8")
		fmt.Fprintf(stdout, "server_vs_client %.3f (mult.client.s8 op_p50_ms %.3f ÷ mult.server.s8 op_p50_ms %.3f; not gated)\n",
			set.ServerVsClient, p50("mult.client.s8"), p50("mult.server.s8"))
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(set, "", " ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// runChild runs one workload in a fresh process of this binary, so no
// workload inherits another's heap, caches or goroutines. It passes the
// parent's flags through, echoes the child's report and parses its last
// line.
func runChild(name string, args []string, stdout, stderr io.Writer) (res result, err error) {
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
	cmd.Stdout, cmd.Stderr = &buf, stderr
	runErr := cmd.Run()
	text := strings.TrimRight(buf.String(), "\n")
	cut := strings.LastIndexByte(text, '\n') + 1
	if json.Unmarshal([]byte(text[cut:]), &res) != nil {
		stdout.Write(buf.Bytes())
		if runErr == nil {
			runErr = errors.New("child printed no result")
		}
		return res, runErr
	}
	// A child that printed a result but exited non-zero found its output
	// incorrect; res.Correct carries that.
	stdout.Write([]byte(text[:cut]))
	return res, nil
}
