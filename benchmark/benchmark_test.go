package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
)

func TestPercentileAndSampleCount(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 unsorted
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1000 samples leave exactly ten beyond p99; 100 leave ten beyond p90.
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{1000, 99, 10}, {999, 99, 9}, {100, 90, 10}, {40, 90, 4}, {12, 50, 6}, {0, 50, 0}} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// quiet: the lower quartile per key, the median of that over the keys.
	// Key 0 costs 1 and key 1 costs 3; half of each key's repeats are delayed.
	lat := []float64{1, 3, 9, 3, 1, 11, 1, 3, 9, 11, 1, 3}
	key := []int{0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1}
	if got := quiet(lat, key); got != 2 {
		t.Errorf("quiet per key = %v, want 2 (the floors 1 and 3)", got)
	}
	if got := quiet(lat, nil); got != 1 {
		t.Errorf("quiet of one key = %v, want the lower quartile 1", got)
	}
	if got := quiet(nil, nil); got != 0 {
		t.Errorf("quiet of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// The values Python's statistics.quantiles(xs, n=4) returns.
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		if a, b := streamHash(w, 7), streamHash(w, 7); a != b {
			t.Errorf("%s: one seed gave hashes %s and %s", w.Name, a, b)
		}
		if a, b := streamHash(w, 7), streamHash(w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave one hash %s", w.Name, a)
		}
		a, b := queryStream(w.readKind(), 7, w.N), queryStream(w.readKind(), 7, w.N)
		for i := range a {
			if a[i].Path != b[i].Path || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s: request %d differs between two generations", w.Name, i)
			}
		}
	}
	// Key counts are part of the workload definitions.
	for kind, want := range map[readerKind]int{readColdSelect: 250, readWarmMix: 15, readBigCold: 100} {
		keys := queryStream(kind, 1, 12000)
		seen := make(map[string]bool)
		for _, k := range keys {
			seen[k.Path+string(k.Body)] = true
		}
		if len(keys) != want || len(seen) != want {
			t.Errorf("reader kind %d: %d keys, %d distinct, want %d", kind, len(keys), len(seen), want)
		}
	}
	if p := setupProbe(); p.K <= 50 {
		t.Errorf("set-up probe k=%d collides with the stream keys 1..50", p.K)
	}
}

// The writers must never send a batch the daemon rejects: every batch
// validates, and the whole sequence applies to a real system, which fails
// on a remove_edge of an edge that is not there.
func TestWriterBatchesAlwaysApply(t *testing.T) {
	d, err := datasets.ByName(datasetName, datasets.Options{N: 300, Mu: 10, Seed: indexSeed})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []writerKind{writePaced, writeBurst} {
		g := newBatchGen(kind, 3, 300)
		var batches []dynamic.Batch
		for i := 0; i < 60; i++ {
			b := g.Next()
			if err := b.Validate(300, d.Sys.R()); err != nil {
				t.Fatalf("kind %d batch %d: %v", kind, i, err)
			}
			if want := map[writerKind]int{writePaced: 4, writeBurst: 1}[kind]; len(b) != want {
				t.Fatalf("kind %d batch %d has %d ops, want %d", kind, i, len(b), want)
			}
			batches = append(batches, b)
		}
		if _, _, err := dynamic.ReplaySystem(d.Sys, batches); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
	}
}

func readBenchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bj benchmarkDoc
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bj := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	names := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the driver's limits", n)
		}
		if names[n] {
			t.Errorf("name %q is used twice", n)
		}
		names[n] = true
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	var gated []workload
	for _, w := range workloads {
		if !w.HarnessOnly {
			gated = append(gated, w)
		}
	}
	if len(bj.Workloads) != len(gated) || len(gated) < 2 || len(gated) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d for the driver in spec.go (limits 2 to 8)", len(bj.Workloads), len(gated))
	}
	for i, w := range gated {
		name(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (limit 16)", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.Name)
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go has %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 || !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: bound %v or unit %q outside the driver's limits", d.Name, d.Bound, d.Unit)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in layers.go (limit 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, layers.go has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or better %q outside the driver's limits", d.Name, d.Unit, d.Better)
		}
	}
}

// tinyShape runs every phase of a workload in a fraction of a second.
var tinyShape = shape{
	Setups:    1,
	WarmUp:    10 * time.Millisecond,
	Window:    200 * time.Millisecond,
	Pace:      20 * time.Millisecond,
	WriteTail: 60 * time.Millisecond,
	ReadTail:  40 * time.Millisecond,
	ProbeEach: 5,
	OracleN:   2,
	TraceReqs: 6,
	TraceOps:  3,
}

// TestSmokeAllWorkloads runs the whole harness (live run against an
// in-process httptest server, oracle, traced replay) on a 300-node graph,
// and checks the result against the driver's schema: every name of
// BENCHMARK.json is reported, and nothing failed.
func TestSmokeAllWorkloads(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("rss_peak_mb and cpu_ms_per_op are read from /proc")
	}
	bj := readBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range workloads {
		w.N, w.Theta = 300, 64
		res, err := runWorkload(inprocBackend{}, w, tinyShape, 5, dir, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d problems=%v", w.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (reported %v); it must be positive on every workload", w.Name, d.Name, v, ok)
			}
		}
		if w.Restart && res.Metrics["restart_ms"].Value <= 0 {
			t.Errorf("%s: no restart_ms", w.Name)
		}
		for trace, want := range map[int]int{0: len(bj.EndToEnd), 1: len(bj.PerLayer)} {
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(contractLine(res, trace))))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s: -trace %d line has %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(line.Metrics), want)
			}
			for name, m := range line.Metrics {
				if m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) || m.Unit == "" {
					t.Errorf("%s: metric %s has no finite value or no unit", w.Name, name)
				}
			}
		}
		spans, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var sf struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(spans, &sf); err != nil {
			t.Fatal(err)
		}
		children := 0
		for _, s := range sf.Spans {
			if s.EndNs < s.StartNs {
				t.Errorf("%s: span %d ends before it starts", w.Name, s.ID)
			}
			if s.Parent != 0 {
				children++
				if p := sf.Spans[s.Parent-1]; p.Request != s.Request || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
					t.Errorf("%s: span %d is not inside its parent %d or has another request id", w.Name, s.ID, s.Parent)
				}
			}
		}
		if children == 0 {
			t.Errorf("%s: span file has no parent links", w.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		p := filepath.Join(dir, name)
		if err := f.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	file := func(p50, qps []float64) *resultFile {
		f := newResultFile(1, 10)
		f.Workloads["cold-select"] = &workloadRuns{
			StreamHash: "x", Correct: true, Attempted: 10,
			Units:  map[string]string{"query_quiet_ms": "ms", "query_qps": "1/s"},
			Values: map[string][]float64{"query_quiet_ms": p50, "query_qps": qps},
		}
		return f
	}
	steady := []float64{5.0, 5.02, 5.04, 4.98, 4.96}
	a := write("a.json", file(steady, []float64{170, 171, 169, 170, 172}))
	same := write("same.json", file(steady, []float64{168, 171, 169, 170, 172}))
	slow := write("slow.json", file([]float64{8.0, 8.02, 8.04, 7.98, 7.96}, []float64{100, 101, 99, 100, 102}))
	noisy := write("noisy.json", file([]float64{3, 9, 5, 12, 4}, []float64{170, 171, 169, 170, 172}))
	var out bytes.Buffer
	if code := compareFiles(&out, a, same); code != 0 || bytes.Contains(out.Bytes(), []byte("worse\n")) {
		t.Errorf("A/A: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, a, slow); code != 1 || !regexp.MustCompile(`query_quiet_ms .* worse\n`).Match(out.Bytes()) || !regexp.MustCompile(`query_qps .* info\n`).Match(out.Bytes()) {
		t.Errorf("regression: exit %d\n%s", code, out.String())
	}
	if by := worseBy(170, 100, "higher"); by <= 0.25 {
		t.Errorf("a throughput falling from 170 to 100 is worse by %v", by)
	}
	out.Reset()
	if code := compareFiles(&out, a, noisy); code != 0 || !regexp.MustCompile(`query_quiet_ms .* unresolved\n`).Match(out.Bytes()) {
		t.Errorf("noisy: exit %d\n%s", code, out.String())
	}
	other := file(steady, steady)
	other.Env.GOMAXPROCS++
	if code := compareFiles(io.Discard, a, write("other.json", other)); code != 2 {
		t.Errorf("different environments: exit %d, want 2", code)
	}
}
