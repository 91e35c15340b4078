package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []metricDef     `json:"per_layer"`
}

type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

func readBenchmarkFile(path string) (b benchmarkFile, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(raw, &b)
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	ok         verdict = "ok"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares side B's values of a metric against side A's. worsening
// is the share of A's median by which B's median is worse (negative =
// better). A worsening beyond the bound is "worse" — unless either
// side's own spread is wider than the bound, in which case the runs
// cannot tell a regression from noise and the verdict is "unresolved".
func judge(a, b []float64, better string, bound float64) (worsening float64, v verdict) {
	ma, mb := median(a), median(b)
	worsening = (mb - ma) / ma
	if better == "higher" {
		worsening = -worsening
	}
	switch {
	case max(spread(a), spread(b)) > bound:
		return worsening, unresolved
	case worsening > bound:
		return worsening, worse
	}
	return worsening, ok
}

func readSets(list string) ([]resultSet, error) {
	var sets []resultSet
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sets = append(sets, s)
	}
	return sets, nil
}

// compareMain implements -compare A B: each side is a comma-separated
// list of -out files. It prints one row per workload × end-to-end metric
// and returns 1 when any row is worse.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two arguments, each a comma-separated list of -out files")
		return 2
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: bounds come from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	var sides [2][]resultSet
	for i, list := range args {
		if sides[i], err = readSets(list); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if compareSets(sides[0], sides[1], bf.EndToEnd, stdout) {
		return 1
	}
	return 0
}

// compareSets prints the comparison table and reports whether any row
// is worse.
func compareSets(a, b []resultSet, bounds []boundedMetric, w io.Writer) (anyWorse bool) {
	values := func(sets []resultSet, wl string, get func(result) float64) []float64 {
		var v []float64
		for _, s := range sets {
			if r, ok := s.Workloads[wl]; ok {
				v = append(v, get(r))
			}
		}
		return v
	}
	quart := func(v []float64) string {
		if len(v) < 2 {
			return ""
		}
		q1, q3 := quartiles(v)
		return fmt.Sprintf(" [%.4g–%.4g]", q1, q3)
	}
	fmt.Fprintf(w, "A: %d set(s), B: %d set(s); medians, with quartiles where a side has several sets\n", len(a), len(b))
	fmt.Fprintf(w, "%-16s %-16s %26s %26s %9s %6s  %s\n", "workload", "metric", "A", "B", "worsening", "bound", "verdict")
	for _, wl := range workloads {
		for _, m := range bounds {
			get := func(r result) float64 { return r.Metrics[m.Name].Value }
			va, vb := values(a, wl.name, get), values(b, wl.name, get)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			d, v := judge(va, vb, m.Better, m.Bound)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-16s %-16s %26s %26s %+8.1f%% %5.0f%%  %s\n", wl.name, m.Name,
				fmt.Sprintf("%.4g%s", median(va), quart(va)), fmt.Sprintf("%.4g%s", median(vb), quart(vb)), 100*d, 100*m.Bound, v)
		}
		// Any increase of the failure ratio is a regression.
		fail := func(r result) float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }
		fa, fb := values(a, wl.name, fail), values(b, wl.name, fail)
		if len(fa) == 0 || len(fb) == 0 {
			continue
		}
		v := ok
		if median(fb) > median(fa) {
			v, anyWorse = worse, true
		}
		fmt.Fprintf(w, "%-16s %-16s %26.4g %26.4g %9s %6s  %s\n", wl.name, "fail_ratio", median(fa), median(fb), "", "0%", v)
	}
	sv := func(sets []resultSet) (v []float64) {
		for _, s := range sets {
			v = append(v, s.ServerVsClient)
		}
		return v
	}
	fmt.Fprintf(w, "%-16s %-16s %26.4g %26.4g %9s %6s  %s\n", "(derived)", "server_vs_client", median(sv(a)), median(sv(b)), "", "", "not gated")
	return anyWorse
}
