package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/service"
)

// expositionLine matches one Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-?[0-9.eE+-]+)$`)

// scrape fetches /metrics and returns every sample line (comments
// stripped), failing the test if any line does not parse.
func scrape(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain", ct)
	}
	var samples []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("unparseable exposition line: %q", line)
		}
		samples = append(samples, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// sampleValue returns the value of the first sample whose name+labels
// contain every needle, and whether one was found.
func sampleValue(samples []string, needles ...string) (float64, bool) {
	for _, line := range samples {
		ok := true
		for _, n := range needles {
			if !strings.Contains(line, n) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, msg)
	}
	return resp
}

// TestMetricsExposition drives queries and an update through the HTTP
// layer, then checks /metrics: every line parses, the request-histogram
// counts equal the requests actually sent, and the per-dataset gauges
// reflect the post-update epoch and log depth.
func TestMetricsExposition(t *testing.T) {
	_, idx := testWorld(t)
	batch := testBatch(t, idx)
	svc := service.New(service.Config{SlowQueryLog: 8})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// 3 identical select-seeds (1 computed + 2 cache hits), 1 evaluate,
	// 1 update = 6 observations in the request histogram: the updates series
	// counts the batch's accept and the run that applied it.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/select-seeds", selectReq("RS", "plurality", tdTheta)).Body.Close()
	}
	postJSON(t, ts.URL+"/v1/evaluate", &service.EvaluateRequest{
		Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
		Horizon: tdHorizon, Target: 0, Seeds: []int32{1, 2, 3},
	}).Body.Close()
	postJSON(t, ts.URL+"/v1/datasets/world/updates", &service.UpdateRequest{Ops: batch}).Body.Close()
	// Close waits for the applier to finish the run, observations included.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := svc.WaitIdle(ctx, "world"); serr != nil {
		t.Fatal(serr)
	}
	svc.Close()

	samples := scrape(t, ts)

	var histCount float64
	for _, line := range samples {
		if strings.HasPrefix(line, "ovmd_request_duration_seconds_count") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", line, err)
			}
			histCount += v
		}
	}
	if histCount != 6 {
		t.Errorf("request histogram total count = %v, want 6 (3 select + 1 evaluate + 1 update accepted and applied)", histCount)
	}
	checks := []struct {
		needles []string
		want    float64
	}{
		{[]string{"ovmd_requests_total"}, 4},
		{[]string{"ovmd_cache_hits_total"}, 2},
		{[]string{"ovmd_computations_total"}, 2},
		{[]string{"ovmd_updates_total"}, 1},
		{[]string{"ovmd_dataset_epoch", `dataset="world"`}, 1},
		{[]string{"ovmd_dataset_update_log_depth", `dataset="world"`}, 1},
		{[]string{"ovmd_request_duration_seconds_count", `endpoint="select-seeds"`, `dataset="world"`, `score="plurality"`}, 3},
		{[]string{"ovmd_request_duration_seconds_count", `endpoint="updates"`}, 2},
	}
	for _, c := range checks {
		got, ok := sampleValue(samples, c.needles...)
		if !ok {
			t.Errorf("no sample matching %v", c.needles)
			continue
		}
		if got != c.want {
			t.Errorf("sample %v = %v, want %v", c.needles, got, c.want)
		}
	}
	// The stage histogram must cover the query phases and the update
	// pipeline; the mapped-bytes gauge must exist (zero on a heap index).
	for _, stage := range []string{"cache-lookup", "selection", "serialize", "apply", "repair", "swap"} {
		if _, ok := sampleValue(samples, "ovmd_stage_duration_seconds_count", `stage="`+stage+`"`); !ok {
			t.Errorf("stage histogram missing stage %q", stage)
		}
	}
	for _, gauge := range []string{"ovmd_dataset_index_bytes", "ovmd_dataset_mapped_bytes", "ovmd_dataset_heap_bytes", "ovmd_uptime_seconds", "ovmd_inflight"} {
		if _, ok := sampleValue(samples, gauge); !ok {
			t.Errorf("missing metric %q", gauge)
		}
	}
	// Histogram buckets must be cumulative: the +Inf bucket equals _count.
	inf, okInf := sampleValue(samples, "ovmd_request_duration_seconds_bucket", `endpoint="select-seeds"`, `le="+Inf"`)
	cnt, okCnt := sampleValue(samples, "ovmd_request_duration_seconds_count", `endpoint="select-seeds"`)
	if !okInf || !okCnt || inf != cnt {
		t.Errorf("+Inf bucket %v != count %v", inf, cnt)
	}
}

// TestRingCoversMetrics is the drift guard between /metrics and the
// time-series ring: every series of a counter or gauge family on /metrics
// (the service's registry and the process-global one), apart from the
// per-dataset ovmd_dataset_* gauges, is a key of a ring sample, and every
// family has a HELP line.
func TestRingCoversMetrics(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	svc.TimeSeries().Sample(now)
	pts := svc.TimeSeries().Window(0, now)
	ring := pts[len(pts)-1].Values
	help := make(map[string]bool)
	types := make(map[string]string)
	series := 0
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[f[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			types[f[2]] = f[3]
			if !help[f[2]] {
				t.Errorf("family %s has no HELP line", f[2])
			}
		default:
			key := f[0]
			name, _, _ := strings.Cut(key, "{")
			if typ := types[name]; (typ != "counter" && typ != "gauge") || strings.HasPrefix(name, "ovmd_dataset_") {
				continue
			}
			series++
			if _, ok := ring[key]; !ok {
				t.Errorf("%s is on /metrics but the time-series ring does not sample it", key)
			}
		}
	}
	if series == 0 {
		t.Fatal("no counter or gauge series on /metrics")
	}
}

// TestStatsEndpointsAndSlowQueries checks the /stats endpoint summaries
// and the slow-query debug endpoint after real traffic.
func TestStatsEndpointsAndSlowQueries(t *testing.T) {
	_, idx := testWorld(t)
	svc := service.New(service.Config{SlowQueryLog: 4})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/v1/select-seeds", selectReq("RS", "plurality", tdTheta)).Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ep, ok := st.Endpoints["select-seeds"]
	if !ok {
		t.Fatalf("stats endpoints missing select-seeds: %+v", st.Endpoints)
	}
	if ep.Count != 2 {
		t.Errorf("select-seeds count = %d, want 2", ep.Count)
	}
	if ep.P50Ms < 0 || ep.P99Ms < ep.P50Ms || ep.MaxMs <= 0 {
		t.Errorf("implausible summary: %+v", ep)
	}
	if st.UptimeSeconds <= 0 {
		t.Error("uptimeSeconds missing")
	}
	if len(st.Datasets) != 1 || st.Datasets[0].UpdateLogDepth != 0 {
		t.Errorf("fresh dataset must report updateLogDepth 0: %+v", st.Datasets)
	}

	resp, err = http.Get(ts.URL + "/debug/slow-queries")
	if err != nil {
		t.Fatal(err)
	}
	var slow struct {
		ThresholdNs int64           `json:"thresholdNs"`
		Entries     []obs.SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(slow.Entries) != 2 {
		t.Fatalf("slow log has %d entries, want 2", len(slow.Entries))
	}
	for i := 1; i < len(slow.Entries); i++ {
		if slow.Entries[i].DurNs > slow.Entries[i-1].DurNs {
			t.Error("slow entries not sorted slowest-first")
		}
	}
	if slow.Entries[0].Labels["endpoint"] != "select-seeds" || slow.Entries[0].Labels["dataset"] != "world" {
		t.Errorf("slow entry labels: %+v", slow.Entries[0].Labels)
	}
}

// TestUpdateLogDepthHook: when the daemon provides the persisted-log
// hook, /stats reports its value instead of the epoch delta.
func TestUpdateLogDepthHook(t *testing.T) {
	_, idx := testWorld(t)
	svc := service.New(service.Config{
		UpdateLogDepth: func(dataset string) int {
			if dataset != "world" {
				t.Errorf("hook called with %q", dataset)
			}
			return 7
		},
	})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	st := svc.StatsSnapshot()
	if len(st.Datasets) != 1 || st.Datasets[0].UpdateLogDepth != 7 {
		t.Errorf("updateLogDepth = %+v, want 7 via hook", st.Datasets)
	}
}

// TestStructuredQueryLogging wires a logger at debug and checks the
// query and update lines carry the dataset/epoch/duration fields, and a
// rejected batch's line keeps its event name in msg and its text in reason.
func TestStructuredQueryLogging(t *testing.T) {
	_, idx := testWorld(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&syncWriter{w: &buf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	svc := service.New(service.Config{Logger: logger})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	if _, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta)); serr != nil {
		t.Fatal(serr)
	}
	bad := dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 1 << 30, Value: 0.5}}
	if _, serr := svc.EnqueueUpdates(&service.UpdateRequest{Dataset: "world", Ops: bad}); serr == nil || serr.Code != service.CodeBadRequest {
		t.Fatalf("out-of-range batch: got %v, want bad_request", serr)
	}
	if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: testBatch(t, idx)}); serr != nil {
		t.Fatal(serr)
	}
	svc.Close() // the applier logs its run once it has swapped it in
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d log lines, want 4 (query, update rejected, update accepted, update applied):\n%s", len(lines), buf.String())
	}
	var query, rejected, accepted, update map[string]any
	for i, m := range []*map[string]any{&query, &rejected, &accepted, &update} {
		if err := json.Unmarshal([]byte(lines[i]), m); err != nil {
			t.Fatal(err)
		}
	}
	if accepted["msg"] != "update accepted" || accepted["epoch"] != float64(1) {
		t.Errorf("accept line: %v", accepted)
	}
	if query["msg"] != "query" || query["level"] != "DEBUG" || query["dataset"] != "world" || query["endpoint"] != "select-seeds" {
		t.Errorf("query line: %v", query)
	}
	if _, ok := query["durMs"].(float64); !ok {
		t.Errorf("query line missing durMs: %v", query)
	}
	if update["msg"] != "update applied" || update["level"] != "INFO" || update["epoch"] != float64(1) {
		t.Errorf("update line: %v", update)
	}
	if reason, _ := rejected["reason"].(string); rejected["msg"] != "update rejected" || rejected["error"] != "bad_request" || reason == "" {
		t.Errorf("reject line: %v", rejected)
	}
}

// TestFailedQueryLoggedAtInfo: at the default level a failed query writes
// its warn line, though the query line it replaces is a debug one.
func TestFailedQueryLoggedAtInfo(t *testing.T) {
	_, idx := testWorld(t)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&syncWriter{w: &buf}, &slog.HandlerOptions{Level: slog.LevelInfo}))
	svc := service.New(service.Config{Logger: logger})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, serr := svc.SelectSeedsCtx(ctx, selectReq("RS", "plurality", tdTheta)); serr == nil || serr.Code != service.CodeCanceled {
		t.Fatalf("cancelled query: got %v, want canceled", serr)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `level=WARN msg="request failed"`) || !strings.Contains(lines[0], " error=canceled") {
		t.Errorf("want exactly one request failed line with error=canceled, got:\n%s", buf.String())
	}
}

type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestStatsConsistencyUnderLoad hammers queries from many goroutines
// while polling StatsSnapshot and the /stats + /metrics handlers; under
// -race this proves snapshot reads are race-free, and every snapshot
// must satisfy the documented cross-counter invariants.
func TestStatsConsistencyUnderLoad(t *testing.T) {
	_, idx := testWorld(t)
	svc := service.New(service.Config{CacheSize: 4})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			thetas := []int{tdTheta, tdTheta / 2, tdTheta / 4}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Rotate theta so traffic mixes cache hits, misses, and
				// coalesced computations.
				req := selectReq("RS", "plurality", thetas[(w+i)%len(thetas)])
				if _, serr := svc.SelectSeeds(req); serr != nil {
					t.Error(serr)
					return
				}
			}
		}(w)
	}
	deadline := time.After(300 * time.Millisecond)
	var polls int
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
		}
		st := svc.StatsSnapshot()
		polls++
		if st.CacheHits+st.CacheMisses > st.Requests {
			t.Fatalf("invariant broken: hits %d + misses %d > requests %d", st.CacheHits, st.CacheMisses, st.Requests)
		}
		if st.Computations+st.Coalesced > st.CacheMisses {
			t.Fatalf("invariant broken: computations %d + coalesced %d > misses %d", st.Computations, st.Coalesced, st.CacheMisses)
		}
		var buf bytes.Buffer
		if err := svc.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if polls < 10 {
		t.Logf("only %d stats polls completed", polls)
	}
}

// TestMemoryGauges: the resident-set split is on /metrics on Linux (both
// kinds non-zero: the binary is a mapped file) and absent elsewhere, and
// the Go heap's live and goal bytes are on it everywhere, the goal at
// least the live bytes.
func TestMemoryGauges(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	runtime.GC() // the live bytes are the last GC's
	var buf bytes.Buffer
	if err := svc.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	values := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && strings.HasPrefix(f[0], "ovmd_") {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			values[f[0]] = v
		}
	}
	for _, kind := range []string{"anon", "file"} {
		v, ok := values[`ovmd_process_resident_bytes{kind="`+kind+`"}`]
		if runtime.GOOS != "linux" {
			if ok {
				t.Errorf("resident %s bytes exported off Linux", kind)
			}
			continue
		}
		if v <= 0 {
			t.Errorf("resident %s bytes = %v (present %v), want > 0", kind, v, ok)
		}
	}
	live, goal := values[`ovmd_go_heap_bytes{kind="live"}`], values[`ovmd_go_heap_bytes{kind="goal"}`]
	if live <= 0 || goal < live {
		t.Errorf("go heap live %v, goal %v: want live > 0 and goal >= live", live, goal)
	}
}
