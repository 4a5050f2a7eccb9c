// Command benchmark is the repository's benchmark: it builds cmd/ovmd,
// and for each of five workloads builds the index, starts a real ovmd
// child, drives it over loopback HTTP from a single-process load generator,
// checks the answers against an in-process reference, and prints every
// metric by name with its unit and sample count.
//
//	go run ./benchmark -seed 42                       # all workloads, both runs
//	go run ./benchmark -workload cold-select          # one workload
//	go run ./benchmark -workload cold-select -trace 1 # its per-layer numbers
//	go run ./benchmark -runs 5 -out a.json            # a set of runs, for A/A
//	go run ./benchmark -compare a.json b.json         # typed comparison
//
// End-to-end numbers come from the live run, which records no spans; with
// -trace 1 the same generated streams are then replayed in-process with
// spans around each layer's public functions. README.md has the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: all five)")
		seed    = flag.Int64("seed", 42, "workload seed: key order, seed sets, update targets (the index seed stays 42)")
		seconds = flag.Int("seconds", 16, "measured window per run, in seconds")
		trace   = flag.Int("trace", -1, "0: end-to-end metrics only; 1: also replay in-process with spans and print the per-layer metrics; default: both")
		runs    = flag.Int("runs", 1, "runs per workload; the result file keeps every value, for -compare")
		out     = flag.String("out", "", "write the result file here (default <dir>/result-seed<seed>.json when all workloads run)")
		dir     = flag.String("dir", filepath.Join("benchmark", "out"), "output directory: the ovmd binary, index files, daemon log, span files and the default result file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments and exit non-zero on a regression")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as the tables in this package define it and exit")
	)
	flag.Parse()
	if *spec {
		fmt.Println(benchmarkJSONText(*seconds))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v", flag.Args())
	}
	if *seconds < 1 || *runs < 1 || *trace < -1 || *trace > 1 {
		fatalf("need -seconds >= 1, -runs >= 1 and -trace 0 or 1")
	}
	todo := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatalf("%v", err)
	}
	bin, err := buildDaemon(*dir)
	if err != nil {
		fatalf("%v", err)
	}
	be := procBackend{bin: bin, logDir: *dir}
	// Told to stop, take the daemon along: the benchmark never leaves a
	// process behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	sh := defaultShape(time.Duration(*seconds) * time.Second)

	file := newResultFile(*seed, *seconds)
	ok := true
	var last *result
	for _, w := range todo {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(be, w, sh, *seed, *dir, *trace != 0)
			if err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			printResult(os.Stdout, res, *trace)
			file.add(res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out == "" && *name == "" {
		*out = filepath.Join(*dir, fmt.Sprintf("result-seed%d.json", *seed))
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *name != "" && *trace != -1 {
		// The driver's contract: one JSON object as the last line.
		fmt.Println(contractLine(last, *trace))
	}
	if !ok {
		os.Exit(1)
	}
}

// runWorkload is one complete run: the live run, the oracle, and with
// traced set the in-process replay.
func runWorkload(be backend, w workload, sh shape, seed int64, dir string, traced bool) (*result, error) {
	sh = sh.sizedFor(w)
	res, err := runLive(be, w, sh, seed, dir)
	if err != nil {
		return nil, err
	}
	runOracle(res, w, sh.OracleN)
	if traced {
		if err := runTraced(res, w, sh, dir); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

// benchmarkDoc is the driver's schema for BENCHMARK.json.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []docEndToEnd `json:"end_to_end"`
	PerLayer   []docLayer    `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type docLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSONText renders the driver's BENCHMARK.json from the workload
// and metric tables, so the file at the repository root is generated, not
// typed: go run ./benchmark -spec > BENCHMARK.json.
func benchmarkJSONText(runSeconds int) string {
	doc := benchmarkDoc{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		if !w.HarnessOnly {
			doc.Workloads = append(doc.Workloads, docWorkload{w.Name, w.Why})
		}
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, docLayer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	killChildren()
	os.Exit(2)
}

// contractLine renders the driver's result object: every end-to-end metric
// with -trace 0, every per-layer metric with -trace 1.
func contractLine(res *result, trace int) string {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{res.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}

// printResult prints every metric a run produced by name, with its unit
// and, where it has one, its sample count. A percentile with fewer than
// ten samples beyond it is marked: it is a reading, not a supported tail.
func printResult(out *os.File, res *result, trace int) {
	fmt.Fprintf(out, "== %s seed=%d stream=%s correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.StreamHash, res.Correct, res.Attempted, res.Failed)
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(out, "-- %s\n", title)
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("%-40s %14.4f %-6s", d.Name, v.Value, d.Unit)
			if v.Samples > 0 {
				line += fmt.Sprintf(" n=%d", v.Samples)
			}
			if p, isPct := percentileOf(d.Name); isPct && beyond(v.Samples, p) < 10 {
				line += fmt.Sprintf(" (only %d beyond)", beyond(v.Samples, p))
			}
			fmt.Fprintln(out, line)
		}
	}
	if trace != 1 {
		section("end to end", endToEnd)
	}
	if trace != 0 {
		section("per layer", perLayer)
	}
	for _, f := range res.Flags {
		fmt.Fprintf(out, "flag: %s\n", f)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(out, "WRONG: %s\n", p)
	}
}

// percentileOf reads the percentile out of a metric name like
// query_p99_ms.
func percentileOf(name string) (float64, bool) {
	for _, p := range []float64{50, 90, 99} {
		if strings.Contains(name, fmt.Sprintf("_p%.0f_", p)) {
			return p, true
		}
	}
	return 0, false
}

// resultFile is what -out writes and -compare reads: the environment the
// numbers were taken in and, per workload and metric, every run's value.
type resultFile struct {
	Env       env                      `json:"env"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

type workloadRuns struct {
	StreamHash string               `json:"stream_hash"`
	Correct    bool                 `json:"correct"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Units      map[string]string    `json:"units"`
	Samples    map[string]int       `json:"samples"` // of the last run
	Values     map[string][]float64 `json:"values"`  // one per run
	Flags      []string             `json:"flags,omitempty"`
	Problems   []string             `json:"problems,omitempty"`
}

func newResultFile(seed int64, seconds int) *resultFile {
	return &resultFile{
		Env:       env{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed, seconds},
		Workloads: make(map[string]*workloadRuns),
	}
}

func (f *resultFile) add(res *result) {
	wr := f.Workloads[res.Workload]
	if wr == nil {
		wr = &workloadRuns{
			StreamHash: res.StreamHash, Correct: true,
			Units: map[string]string{}, Samples: map[string]int{}, Values: map[string][]float64{},
		}
		f.Workloads[res.Workload] = wr
	}
	wr.Correct = wr.Correct && res.Correct
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	wr.Flags = append(wr.Flags, res.Flags...)
	wr.Problems = append(wr.Problems, res.Problems...)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		wr.Units[name] = v.Unit
		wr.Samples[name] = v.Samples
		wr.Values[name] = append(wr.Values[name], v.Value)
	}
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
