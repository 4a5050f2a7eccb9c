package service_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ovm"
	"ovm/internal/datasets"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

const (
	tdHorizon = 8
	tdTheta   = 512
	tdSeed    = int64(5)
	tdK       = 6
)

// testWorld builds the shared fixture: a small synthetic system plus a
// fully populated index for (target 0, horizon 8, seed 5).
func testWorld(t testing.TB) (*ovm.System, *serialize.Index) {
	t.Helper()
	d, err := datasets.YelpLike(datasets.Options{N: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target:       0,
		Horizon:      tdHorizon,
		Seed:         tdSeed,
		SketchTheta:  tdTheta,
		IncludeWalks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.Sys, idx
}

func newTestService(t testing.TB, idx *serialize.Index) *service.Service {
	t.Helper()
	svc := service.New(service.Config{})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	return svc
}

func selectReq(method, score string, theta int) *service.SelectSeedsRequest {
	return &service.SelectSeedsRequest{
		Dataset: "world",
		Method:  method,
		Score:   service.ScoreSpec{Name: score},
		K:       tdK,
		Horizon: tdHorizon,
		Target:  0,
		Seed:    tdSeed,
		Theta:   theta,
	}
}

// TestIndexedMatchesDirectAcrossParallelism is the end-to-end determinism
// contract: a daemon serving loaded artifacts returns byte-identical seeds
// and scores to the direct ovm.SelectSeeds call, at every parallelism, for
// the RS (sketch artifact) and RW (walk artifact) paths, and for IC, which no
// artifact serves.
func TestIndexedMatchesDirectAcrossParallelism(t *testing.T) {
	sys, idx := testWorld(t)

	// Round-trip the index through the binary format first: the daemon path
	// is build → write → read → serve.
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := serialize.ReadIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, loaded)

	scoreOf := map[string]ovm.Score{
		"plurality":  ovm.Plurality(),
		"cumulative": ovm.Cumulative(),
	}
	cases := []struct {
		name      string
		method    ovm.Method
		score     string
		fromIndex bool
		direct    func(par int) *ovm.SelectOptions
	}{
		{"RS/plurality", ovm.MethodRS, "plurality", true, func(par int) *ovm.SelectOptions {
			opts := &ovm.SelectOptions{Seed: tdSeed, Parallelism: par}
			opts.RS.FixedTheta = tdTheta
			return opts
		}},
		{"RW/cumulative", ovm.MethodRW, "cumulative", true, func(par int) *ovm.SelectOptions {
			return &ovm.SelectOptions{Seed: tdSeed, Parallelism: par}
		}},
		{"IC/plurality", ovm.MethodIC, "plurality", false, func(par int) *ovm.SelectOptions {
			return &ovm.SelectOptions{Seed: tdSeed, Parallelism: par}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob := &ovm.Problem{Sys: sys, Target: 0, Horizon: tdHorizon, K: tdK, Score: scoreOf[tc.score]}
			var wantSeeds []int32
			var wantValue float64
			for i, par := range []int{1, 4, 0} {
				direct, err := ovm.SelectSeeds(prob, tc.method, tc.direct(par))
				if err != nil {
					t.Fatal(err)
				}
				req := selectReq(string(tc.method), tc.score, 0)
				req.Parallelism = par
				svc.ResetCache()
				got, serr := svc.SelectSeeds(req)
				if serr != nil {
					t.Fatal(serr)
				}
				if got.FromIndex != tc.fromIndex {
					t.Fatalf("par=%d: fromIndex=%v, want %v", par, got.FromIndex, tc.fromIndex)
				}
				if !reflect.DeepEqual(got.Seeds, direct.Seeds) {
					t.Fatalf("par=%d: daemon seeds %v != direct %v", par, got.Seeds, direct.Seeds)
				}
				if math.Float64bits(got.ExactValue) != math.Float64bits(direct.ExactValue) {
					t.Fatalf("par=%d: daemon value %v != direct %v", par, got.ExactValue, direct.ExactValue)
				}
				if i == 0 {
					wantSeeds, wantValue = got.Seeds, got.ExactValue
				} else if !reflect.DeepEqual(got.Seeds, wantSeeds) || got.ExactValue != wantValue {
					t.Fatalf("par=%d: response differs across parallelism settings", par)
				}
			}
		})
	}
}

// TestRSThetaDefaultsToArtifact: omitting theta picks the indexed θ.
func TestRSThetaDefaultsToArtifact(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	explicit, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	omitted, serr := svc.SelectSeeds(selectReq("RS", "plurality", 0))
	if serr != nil {
		t.Fatal(serr)
	}
	if !reflect.DeepEqual(explicit.Seeds, omitted.Seeds) {
		t.Errorf("omitted-theta seeds %v != explicit %v", omitted.Seeds, explicit.Seeds)
	}
	if !omitted.Cached {
		t.Error("theta resolution should happen before cache keying (same entry)")
	}
}

// TestCachedVsFreshDeterminism: a cached response and a from-scratch
// response on a brand-new service are identical, and requests differing
// only in parallelism share one cache entry.
func TestCachedVsFreshDeterminism(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	first, serr := svc.SelectSeeds(selectReq("RS", "copeland", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	if first.Cached {
		t.Fatal("first response must be computed")
	}
	repeat, serr := svc.SelectSeeds(selectReq("RS", "copeland", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	if !repeat.Cached {
		t.Error("identical repeat should come from the cache")
	}
	otherPar := selectReq("RS", "copeland", tdTheta)
	otherPar.Parallelism = 2
	viaOtherPar, serr := svc.SelectSeeds(otherPar)
	if serr != nil {
		t.Fatal(serr)
	}
	if !viaOtherPar.Cached {
		t.Error("parallelism must not be part of the cache key")
	}
	fresh, serr := newTestService(t, idx).SelectSeeds(selectReq("RS", "copeland", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	for _, got := range []*service.SelectSeedsResponse{repeat, viaOtherPar, fresh} {
		if !reflect.DeepEqual(got.Seeds, first.Seeds) || got.ExactValue != first.ExactValue {
			t.Errorf("response diverged: %v/%v vs %v/%v", got.Seeds, got.ExactValue, first.Seeds, first.ExactValue)
		}
	}
}

// TestSingleflightCoalescing: N identical concurrent requests trigger one
// computation; every caller receives the same response.
func TestSingleflightCoalescing(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	const callers = 8
	var (
		start     = make(chan struct{})
		wg        sync.WaitGroup
		mu        sync.Mutex
		responses []*service.SelectSeedsResponse
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// DM is the slowest method here, keeping every caller inside the
			// in-flight window of the first.
			resp, serr := svc.SelectSeeds(selectReq("DM", "plurality", 0))
			if serr != nil {
				t.Error(serr)
				return
			}
			mu.Lock()
			responses = append(responses, resp)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(responses) != callers {
		t.Fatalf("got %d responses, want %d", len(responses), callers)
	}
	if got := svc.Computations(); got != 1 {
		t.Errorf("computations = %d, want 1 (singleflight + cache must coalesce)", got)
	}
	for _, r := range responses[1:] {
		if !reflect.DeepEqual(r.Seeds, responses[0].Seeds) || r.ExactValue != responses[0].ExactValue {
			t.Errorf("coalesced responses differ: %v vs %v", r, responses[0])
		}
	}
}

// TestServiceCacheEviction: a capacity-1 cache recomputes evicted entries.
func TestServiceCacheEviction(t *testing.T) {
	_, idx := testWorld(t)
	svc := service.New(service.Config{CacheSize: 1})
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	if _, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta)); serr != nil {
		t.Fatal(serr)
	}
	if _, serr := svc.SelectSeeds(selectReq("RS", "cumulative", tdTheta)); serr != nil {
		t.Fatal(serr)
	}
	resp, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	if resp.Cached {
		t.Error("evicted entry must be recomputed")
	}
	if got := svc.Computations(); got != 3 {
		t.Errorf("computations = %d, want 3", got)
	}
}

func TestEvaluateWinsAndMinSeeds(t *testing.T) {
	sys, idx := testWorld(t)
	svc := newTestService(t, idx)
	sel, serr := svc.SelectSeeds(selectReq("RS", "plurality", tdTheta))
	if serr != nil {
		t.Fatal(serr)
	}
	eval, serr := svc.Evaluate(&service.EvaluateRequest{
		Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
		Horizon: tdHorizon, Target: 0, Seeds: sel.Seeds,
	})
	if serr != nil {
		t.Fatal(serr)
	}
	direct, err := ovm.Evaluate(sys, 0, tdHorizon, ovm.Plurality(), sel.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if eval.Value != direct || eval.Value != sel.ExactValue {
		t.Errorf("evaluate %v, direct %v, select %v — all must agree", eval.Value, direct, sel.ExactValue)
	}
	wins, serr := svc.Wins(&service.EvaluateRequest{
		Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
		Horizon: tdHorizon, Target: 0, Seeds: sel.Seeds,
	})
	if serr != nil {
		t.Fatal(serr)
	}
	directWins, err := ovm.Wins(sys, 0, tdHorizon, ovm.Plurality(), sel.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if wins.Wins != directWins {
		t.Errorf("wins %v, direct %v", wins.Wins, directWins)
	}
	minReq := &service.MinSeedsRequest{
		Dataset: "world", Method: "DM", Score: service.ScoreSpec{Name: "cumulative"},
		Horizon: tdHorizon, Target: 0,
	}
	min, serr := svc.MinSeedsToWin(minReq)
	if serr != nil {
		t.Fatal(serr)
	}
	directMin, err := ovm.MinSeedsToWin(sys, 0, tdHorizon, ovm.Cumulative(), ovm.MethodDM, nil)
	if err != nil && err != ovm.ErrCannotWin {
		t.Fatal(err)
	}
	if err == ovm.ErrCannotWin {
		if min.CanWin {
			t.Error("daemon says winnable, library says not")
		}
	} else {
		if !min.CanWin || !reflect.DeepEqual(min.Seeds, directMin) {
			t.Errorf("min seeds %v (canWin=%v), direct %v", min.Seeds, min.CanWin, directMin)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	cases := []struct {
		name string
		mut  func(*service.SelectSeedsRequest)
		code service.ErrorCode
	}{
		{"unknown dataset", func(r *service.SelectSeedsRequest) { r.Dataset = "nope" }, service.CodeNotFound},
		{"unknown method", func(r *service.SelectSeedsRequest) { r.Method = "ZZ" }, service.CodeBadRequest},
		{"unknown score", func(r *service.SelectSeedsRequest) { r.Score.Name = "zz" }, service.CodeBadRequest},
		{"zero k", func(r *service.SelectSeedsRequest) { r.K = 0 }, service.CodeBadRequest},
		{"huge k", func(r *service.SelectSeedsRequest) { r.K = 1 << 20 }, service.CodeBadRequest},
		{"negative horizon", func(r *service.SelectSeedsRequest) { r.Horizon = -1 }, service.CodeBadRequest},
		{"bad target", func(r *service.SelectSeedsRequest) { r.Target = 99 }, service.CodeBadRequest},
		{"negative parallelism", func(r *service.SelectSeedsRequest) { r.Parallelism = -2 }, service.CodeBadRequest},
		{"negative theta", func(r *service.SelectSeedsRequest) { r.Theta = -1 }, service.CodeBadRequest},
		{"bad p-approval", func(r *service.SelectSeedsRequest) { r.Score = service.ScoreSpec{Name: "p-approval", P: -3} }, service.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := selectReq("RS", "plurality", tdTheta)
			tc.mut(req)
			_, serr := svc.SelectSeeds(req)
			if serr == nil {
				t.Fatal("expected a validation error")
			}
			if serr.Code != tc.code {
				t.Errorf("code = %s, want %s (%s)", serr.Code, tc.code, serr.Message)
			}
		})
	}
}

// TestBoundsValidationAcrossEndpoints drives the shared target/horizon
// bounds (cliutil.ValidateTargetHorizon) through every query shape: each
// violation must come back as a typed bad_request regardless of endpoint.
func TestBoundsValidationAcrossEndpoints(t *testing.T) {
	sys, idx := testWorld(t)
	svc := newTestService(t, idx)
	bounds := []struct {
		name            string
		target, horizon int
	}{
		{"negative target", -1, tdHorizon},
		{"target at r", sys.R(), tdHorizon},
		{"target above r", sys.R() + 99, tdHorizon},
		{"negative horizon", 0, -1},
	}
	endpoints := []struct {
		name string
		call func(target, horizon int) *service.Error
	}{
		{"select-seeds", func(target, horizon int) *service.Error {
			req := selectReq("RS", "plurality", tdTheta)
			req.Target, req.Horizon = target, horizon
			_, serr := svc.SelectSeeds(req)
			return serr
		}},
		{"evaluate", func(target, horizon int) *service.Error {
			_, serr := svc.Evaluate(&service.EvaluateRequest{
				Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
				Target: target, Horizon: horizon,
			})
			return serr
		}},
		{"wins", func(target, horizon int) *service.Error {
			_, serr := svc.Wins(&service.EvaluateRequest{
				Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
				Target: target, Horizon: horizon,
			})
			return serr
		}},
		{"min-seeds-to-win", func(target, horizon int) *service.Error {
			_, serr := svc.MinSeedsToWin(&service.MinSeedsRequest{
				Dataset: "world", Method: "DM", Score: service.ScoreSpec{Name: "plurality"},
				Target: target, Horizon: horizon,
			})
			return serr
		}},
	}
	for _, ep := range endpoints {
		for _, tc := range bounds {
			t.Run(ep.name+"/"+tc.name, func(t *testing.T) {
				serr := ep.call(tc.target, tc.horizon)
				if serr == nil {
					t.Fatal("expected a validation error")
				}
				if serr.Code != service.CodeBadRequest {
					t.Errorf("code = %s, want %s (%s)", serr.Code, service.CodeBadRequest, serr.Message)
				}
			})
		}
	}
}

// TestHTTPEndpoints exercises the transport: JSON handling, typed error
// mapping, health, stats, and dataset listing.
func TestHTTPEndpoints(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var payload map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
		return resp, payload
	}

	resp, payload := post("/v1/select-seeds",
		`{"dataset":"world","method":"RS","score":{"name":"plurality"},"k":6,"horizon":8,"seed":5,"theta":512}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select-seeds status %d: %v", resp.StatusCode, payload)
	}
	if payload["fromIndex"] != true {
		t.Errorf("expected fromIndex=true, got %v", payload["fromIndex"])
	}
	seeds := payload["seeds"].([]any)
	if len(seeds) != 6 {
		t.Errorf("got %d seeds, want 6", len(seeds))
	}

	resp, payload = post("/v1/evaluate",
		`{"dataset":"world","score":{"name":"plurality"},"horizon":8,"target":0,"seeds":[1,2,3]}`)
	if resp.StatusCode != http.StatusOK || payload["value"] == nil {
		t.Errorf("evaluate status %d payload %v", resp.StatusCode, payload)
	}

	resp, payload = post("/v1/wins",
		`{"dataset":"world","score":{"name":"plurality"},"horizon":8,"target":0,"seeds":[1,2,3]}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("wins status %d payload %v", resp.StatusCode, payload)
	}

	resp, payload = post("/v1/select-seeds", `{"dataset":"missing","method":"RS","score":{"name":"plurality"},"k":3,"horizon":8}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown dataset status %d, want 404 (%v)", resp.StatusCode, payload)
	}
	resp, payload = post("/v1/select-seeds", `{"dataset":"world","method":"RS","score":{"name":"plurality"},"k":0,"horizon":8}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid k status %d, want 400 (%v)", resp.StatusCode, payload)
	}
	resp, payload = post("/v1/select-seeds", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status %d, want 400 (%v)", resp.StatusCode, payload)
	}
	resp, payload = post("/v1/select-seeds", `{"dataset":"world","unknownField":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400 (%v)", resp.StatusCode, payload)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", health.StatusCode)
	}

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats service.Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if stats.Requests < 3 || len(stats.Datasets) != 1 || stats.Datasets[0].SketchArtifacts != 1 {
		t.Errorf("stats look wrong: %+v", stats)
	}

	dsResp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var ds map[string][]string
	if err := json.NewDecoder(dsResp.Body).Decode(&ds); err != nil {
		t.Fatal(err)
	}
	dsResp.Body.Close()
	if !reflect.DeepEqual(ds["datasets"], []string{"world"}) {
		t.Errorf("datasets = %v, want [world]", ds["datasets"])
	}
}
