package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// -compare a.json b.json: one row per workload and end-to-end metric, the
// medians of both files, how much worse b is as a share of a, both spreads,
// and a verdict against the metric's bound (the bounds of BENCHMARK.json,
// which TestBenchmarkJSONMatchesSpec keeps equal to the endToEnd table):
//
//	ok          b's median is not worse than a's by more than the bound
//	worse       it is, and both spreads are within the bound
//	unresolved  a spread is wider than the bound, so the runs cannot tell
//
// Readings without a bound (p99, p90, restart_ms) are listed as "info".

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worseBy is how much worse b is than a, as a share of a; negative when b
// is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return math.NaN()
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

func verdict(a, b []float64, d metricDef) (string, float64) {
	w := worseBy(median(a), median(b), d.Better)
	if d.Bound == 0 {
		return "info", w
	}
	for _, xs := range [][]float64{a, b} {
		if len(xs) >= 2 && spread(xs) > d.Bound {
			return "unresolved", w
		}
	}
	if w > d.Bound {
		return "worse", w
	}
	return "ok", w
}

// compareFiles prints the table and returns the process exit code: 1 when
// any metric is worse or either file holds a wrong answer, 2 when the files
// cannot be compared at all.
func compareFiles(out io.Writer, pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// Numbers taken on a different core count, runtime or window length are
	// different experiments; comparing them would only mislead.
	ea, eb := a.Env, b.Env
	if ea.NProc != eb.NProc || ea.GOMAXPROCS != eb.GOMAXPROCS || ea.GoVersion != eb.GoVersion || ea.Seconds != eb.Seconds {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: environments differ (%+v against %+v)\n", ea, eb)
		return 2
	}
	code := 0
	fmt.Fprintf(out, "%-13s %-22s %12s %12s %9s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "a spread", "b spread", "bound", "verdict")
	defs := append(append([]metricDef(nil), endToEnd...), perLayer[:unboundedReadings]...)
	for _, w := range workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			continue
		}
		if ra.StreamHash != rb.StreamHash && ea.Seed == eb.Seed {
			fmt.Fprintf(out, "%-13s stream hashes differ for one seed: %s against %s\n", w.Name, ra.StreamHash, rb.StreamHash)
			code = 1
		}
		if !ra.Correct || !rb.Correct || ra.Failed+rb.Failed > 0 {
			fmt.Fprintf(out, "%-13s wrong answers or failed requests: a correct=%v failed=%d, b correct=%v failed=%d\n",
				w.Name, ra.Correct, ra.Failed, rb.Correct, rb.Failed)
			code = 1
		}
		for _, d := range defs {
			va, vb := ra.Values[d.Name], rb.Values[d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, by := verdict(va, vb, d)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(out, "%-13s %-22s %12.4f %12.4f %8.1f%% %7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, median(va), median(vb), 100*by, 100*spread(va), 100*spread(vb), 100*d.Bound, v)
		}
	}
	return code
}
