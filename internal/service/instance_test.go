package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/voting"
)

// The five scores of the paper, as the wire spec and as the library value
// the from-scratch reference evaluates.
var instanceScores = []struct {
	spec  service.ScoreSpec
	score func(r int) voting.Score
}{
	{service.ScoreSpec{Name: "cumulative"}, func(int) voting.Score { return voting.Cumulative{} }},
	{service.ScoreSpec{Name: "plurality"}, func(int) voting.Score { return voting.Plurality{} }},
	{service.ScoreSpec{Name: "p-approval", P: 2}, func(int) voting.Score { return voting.PApproval{P: 2} }},
	{service.ScoreSpec{Name: "borda"}, func(r int) voting.Score { return voting.BordaAsPositional(r) }},
	{service.ScoreSpec{Name: "copeland"}, func(int) voting.Score { return voting.Copeland{} }},
}

// referenceMatrix is the from-scratch oracle: every row diffused serially by
// opinion.Matrix, nothing shared with the service's memo.
func referenceMatrix(sys *opinion.System, seeds []int32) [][]float64 {
	B, err := opinion.Matrix(sys, tdHorizon, 0, seeds, 1)
	if err != nil {
		panic(err) // target 0 is always in range
	}
	return B
}

func referenceWins(B [][]float64, score voting.Score) bool {
	fq := score.Eval(B, 0)
	for x := 1; x < len(B); x++ {
		if score.Eval(B, x) >= fq {
			return false
		}
	}
	return true
}

// sparseWorld is the fixture on which exact evaluations stay on frontier
// steps: every out-degree is at most 3, so a few seeds reach a small share of
// the in-edges within the horizon. On testWorld's 120 densely linked nodes
// every seeded evaluation trips the saturation guard at its first step.
func sparseWorld(t testing.TB) (*opinion.System, *serialize.Index) {
	t.Helper()
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{Target: 0, Horizon: tdHorizon, Seed: tdSeed, SketchTheta: tdTheta})
	if err != nil {
		t.Fatal(err)
	}
	return d.Sys, idx
}

// frontierEdgeSteps is the test's own count of what a frontier evaluation of
// seeds to the horizon performs: Σ_{s=1..horizon} of the in-degrees of the
// nodes within s out-hops of a seed.
func frontierEdgeSteps(c *opinion.Candidate, seeds []int32, horizon int) int64 {
	dist := map[int32]int{}
	var queue []int32
	for _, s := range seeds {
		if _, seen := dist[s]; !seen {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	var total int64
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		// v is recomputed at every step from max(1, its hop distance) on.
		total += int64(horizon-max(1, dist[v])+1) * int64(c.G.InDegree(v))
		if dist[v] == horizon {
			continue
		}
		c.G.OutEdges(v, func(u int32, _ float64) {
			if _, seen := dist[u]; !seen {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return total
}

// competitorOps moves a competitor's opinions on 30 nodes, so the competitor
// rows of the next epoch differ from the previous epoch's: an answer computed
// from stale memo rows cannot match the reference.
func competitorOps() dynamic.Batch {
	var batch dynamic.Batch
	for v := int32(0); v < 30; v++ {
		batch = append(batch, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 3 * v, Value: 0.99})
	}
	return batch
}

// targetOps moves the target's own seedless trajectory: its opinions on 30
// nodes and, with edges, three influence edges. An answer computed from the
// previous epoch's trajectory cannot match the reference.
func targetOps(edges bool) dynamic.Batch {
	var batch dynamic.Batch
	for v := int32(0); v < 30; v++ {
		batch = append(batch, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 3*v + 1, Value: 0.01})
	}
	if edges {
		for v := int32(0); v < 3; v++ {
			batch = append(batch, dynamic.Op{Kind: dynamic.OpAddEdge, From: 40 + v, To: 7 * v, W: 2})
		}
	}
	return batch
}

func competitorDrift(t *testing.T, svc *service.Service, sys *opinion.System) *opinion.System {
	t.Helper()
	return applyDrift(t, svc, sys, competitorOps())
}

func applyDrift(t *testing.T, svc *service.Service, sys *opinion.System, batch dynamic.Batch) *opinion.System {
	t.Helper()
	if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch}); serr != nil {
		t.Fatal(serr)
	}
	mutated, _, err := dynamic.ApplySystem(sys, batch)
	if err != nil {
		t.Fatal(err)
	}
	return mutated
}

// TestMemoBackedEvaluationMatchesFromScratch is the bit-identity table of the
// per-epoch memo (competitor rows and the target's seedless trajectory): for
// the five scores, at P = 1, 2 and 4, before and after each of two update
// batches, select-seeds, evaluate, wins and min-seeds answered from the shared
// memo equal the from-scratch opinion.Matrix + Score.Eval reference bit for
// bit. One goroutine per score queries the same service at once, so under
// -race a write into a shared row is reported. The first batch moves a
// competitor's row, the second the target's own opinions and edges; the
// references come from the mutated system, so the answers must have been
// computed from the new epoch's rows and trajectory. The dense fixture sends
// every seeded evaluation through the saturation guard, the sparse one keeps
// them on frontier steps.
func TestMemoBackedEvaluationMatchesFromScratch(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		sys, idx := testWorld(t)
		memoBackedMatchesFromScratch(t, sys, idx)
	})
	t.Run("sparse", func(t *testing.T) {
		sys, idx := sparseWorld(t)
		before := obs.CaptureCosts()
		memoBackedMatchesFromScratch(t, sys, idx)
		if d := obs.CaptureCosts().Delta(before); d["ovm_opinion_frontier_nodes_total"] == 0 {
			t.Error("fixture: no evaluation ran a frontier step")
		}
	})
}

func memoBackedMatchesFromScratch(t *testing.T, sys *opinion.System, idx *serialize.Index) {
	// No response cache: every request, at every P, runs the compute path.
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	fixed := []int32{1, 2, 3}

	check := func(t *testing.T, sys *opinion.System, epoch int64) {
		var wg sync.WaitGroup
		for _, sc := range instanceScores {
			sc := sc
			score := sc.score(sys.R())
			wantFixed := referenceMatrix(sys, fixed)
			wantMin, minErr := core.MinSeedsToWin(sys, 0, tdHorizon, score, librarySelector(
				"RS", core.Problem{Sys: sys, Horizon: tdHorizon, K: 1, Score: score}, tdTheta))
			if minErr != nil && !errors.Is(minErr, core.ErrCannotWin) {
				t.Fatal(minErr)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, par := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/P%d/epoch%d", sc.spec.Name, par, epoch)
					sel, serr := svc.SelectSeeds(&service.SelectSeedsRequest{
						Dataset: "world", Method: "RS", Score: sc.spec, K: tdK, Horizon: tdHorizon,
						Seed: tdSeed, Theta: tdTheta, Parallelism: par,
					})
					if serr != nil {
						t.Errorf("%s select-seeds: %v", name, serr)
						return
					}
					if want := score.Eval(referenceMatrix(sys, sel.Seeds), 0); sel.ExactValue != want || sel.Epoch != epoch || !sel.FromIndex {
						t.Errorf("%s select-seeds: exact %v epoch %d fromIndex %v, reference %v epoch %d",
							name, sel.ExactValue, sel.Epoch, sel.FromIndex, want, epoch)
					}
					evalReq := &service.EvaluateRequest{
						Dataset: "world", Score: sc.spec, Horizon: tdHorizon, Seeds: fixed, Parallelism: par,
					}
					ev, serr := svc.Evaluate(evalReq)
					if serr != nil {
						t.Errorf("%s evaluate: %v", name, serr)
						return
					}
					if want := score.Eval(wantFixed, 0); ev.Value != want || ev.Epoch != epoch {
						t.Errorf("%s evaluate: %v at epoch %d, reference %v", name, ev.Value, ev.Epoch, want)
					}
					wins, serr := svc.Wins(evalReq)
					if serr != nil {
						t.Errorf("%s wins: %v", name, serr)
						return
					}
					if want := referenceWins(wantFixed, score); wins.Wins != want {
						t.Errorf("%s wins: %v, reference %v", name, wins.Wins, want)
					}
					min, serr := svc.MinSeedsToWin(&service.MinSeedsRequest{
						Dataset: "world", Method: "RS", Score: sc.spec, Horizon: tdHorizon,
						Seed: tdSeed, Theta: tdTheta, Parallelism: par,
					})
					if serr != nil {
						t.Errorf("%s min-seeds: %v", name, serr)
						return
					}
					if min.CanWin != (minErr == nil) || (min.CanWin && !reflect.DeepEqual(min.Seeds, wantMin)) {
						t.Errorf("%s min-seeds: %v (canWin=%v), reference %v (%v)", name, min.Seeds, min.CanWin, wantMin, minErr)
					}
					if min.CanWin && !referenceWins(referenceMatrix(sys, min.Seeds), score) {
						t.Errorf("%s min-seeds: %v does not win on the reference matrix", name, min.Seeds)
					}
				}
			}()
		}
		wg.Wait()
	}

	check(t, sys, 0)
	mutated := competitorDrift(t, svc, sys)
	if reflect.DeepEqual(referenceMatrix(sys, nil)[1], referenceMatrix(mutated, nil)[1]) {
		t.Fatal("fixture: the update batch left the competitor row unchanged")
	}
	check(t, mutated, 1)
	moved := applyDrift(t, svc, mutated, targetOps(true))
	if reflect.DeepEqual(referenceMatrix(mutated, nil)[0], referenceMatrix(moved, nil)[0]) {
		t.Fatal("fixture: the update batch left the target's seedless row unchanged")
	}
	check(t, moved, 2)
}

// TestColdSelectDiffusionCount pins what a cold select-seeds pays. The first
// to need the epoch's (target, horizon) rows runs r+1 diffusions: the r−1
// competitor rows and the target's seedless trajectory, dense, then its own
// frontier evaluation. From then on a request runs exactly one, the frontier
// evaluation, whose edge steps are the in-degrees of the nodes within s hops
// of its seeds summed over the steps — counted here by the test's own BFS —
// and never fall back to dense steps on this graph. An update that moves a
// competitor drops the epoch's horizon-8 rows, so the next epoch's first
// request builds them again. The counts are read from the EXPLAIN cost block.
func TestColdSelectDiffusionCount(t *testing.T) {
	sys, idx := sparseWorld(t)
	svc := newTestService(t, idx)
	defer svc.Close()
	query := func(score string, firstOfEpoch bool) {
		t.Helper()
		r, m := int64(sys.R()), int64(sys.Candidate(0).G.M())
		req := selectReq("RS", score, tdTheta)
		req.Explain = true
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if resp.Cached {
			t.Fatalf("%s: served from the response cache", score)
		}
		wantDiffusions, wantHits, wantMisses := int64(1), int64(1), int64(0)
		wantEdges := frontierEdgeSteps(sys.Candidate(0), resp.Seeds, tdHorizon)
		if wantEdges == 0 || wantEdges > tdHorizon*m/3 {
			t.Fatalf("fixture: %s seeds reach %d of the %d dense edge steps", score, wantEdges, tdHorizon*m)
		}
		if firstOfEpoch {
			wantDiffusions, wantHits, wantMisses = r+1, 0, 1
			wantEdges += r * tdHorizon * m
		}
		cost := resp.Explain.Cost
		if got := cost["ovm_opinion_diffusions_total"]; got != wantDiffusions {
			t.Errorf("%s: %d diffusions, want %d", score, got, wantDiffusions)
		}
		if got := cost["ovm_opinion_edge_steps_total"]; got != wantEdges {
			t.Errorf("%s: %d edge steps, want %d (dense horizon x edges = %d)", score, got, wantEdges, tdHorizon*m)
		}
		if got := cost["ovm_opinion_dense_fallbacks_total"]; got != 0 {
			t.Errorf("%s: %d dense fallbacks, want 0", score, got)
		}
		if hits, misses := cost["ovm_core_competitor_memo_hits_total"], cost["ovm_core_competitor_memo_misses_total"]; hits != wantHits || misses != wantMisses {
			t.Errorf("%s: memo hits/misses %d/%d, want %d/%d", score, hits, misses, wantHits, wantMisses)
		}
	}
	query("plurality", true)
	query("copeland", false)
	query("cumulative", false)
	sys = applyDrift(t, svc, sys, append(competitorOps(), targetOps(true)...))
	query("plurality", true)
	query("borda", false)
}

// TestBenchmarkKeysStayOnFrontier runs the benchmark's cold-select key set —
// 5 scores x k = 1..50 on its 12 000-node graph at horizon 10 — against a
// warm epoch memo. The first evaluation of each key is one frontier diffusion
// that never trips the saturation guard, performs exactly the edge steps the
// test's own BFS counts for the returned seeds, and at most 35% of the dense
// horizon x m. The epoch then knows every key's value: the same 250 keys in a
// shuffled order return the same answers for no diffusion and no edge step.
func TestBenchmarkKeysStayOnFrontier(t *testing.T) {
	const horizon, theta, seed = 10, 4096, int64(42)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{Target: d.DefaultTarget, Horizon: horizon, Seed: seed, SketchTheta: theta})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ask := func(spec service.ScoreSpec, k int) *service.SelectSeedsResponse {
		t.Helper()
		resp, serr := svc.SelectSeeds(&service.SelectSeedsRequest{Dataset: "world", Method: "RS", Score: spec, K: k,
			Horizon: horizon, Target: d.DefaultTarget, Seed: seed, Theta: theta, Explain: true})
		if serr != nil {
			t.Fatal(serr)
		}
		return resp
	}
	// Builds the epoch's rows and trajectory without scoring any key.
	if _, serr := svc.Evaluate(&service.EvaluateRequest{Dataset: "world", Score: instanceScores[0].spec,
		Horizon: horizon, Target: d.DefaultTarget, Seeds: []int32{0}}); serr != nil {
		t.Fatal(serr)
	}
	target := d.Sys.Candidate(d.DefaultTarget)
	dense := int64(horizon * target.G.M())
	var least, most int64 = dense, 0
	type key struct{ score, k int } // score indexes instanceScores
	var keys []key
	first := map[key][]byte{}
	for k := 1; k <= 50; k++ {
		for i, sc := range instanceScores {
			resp := ask(sc.spec, k)
			cost := resp.Explain.Cost
			edges := cost["ovm_opinion_edge_steps_total"]
			if want := frontierEdgeSteps(target, resp.Seeds, horizon); cost["ovm_opinion_diffusions_total"] != 1 ||
				cost["ovm_opinion_dense_fallbacks_total"] != 0 || edges != want || 100*edges > 35*dense {
				t.Fatalf("%s k=%d: cost %v, want one diffusion of %d edge steps, no fallback, at most 35%% of %d",
					sc.spec.Name, k, cost, want, dense)
			}
			least, most = min(least, edges), max(most, edges)
			keys = append(keys, key{i, k})
			first[key{i, k}] = answerBytes(t, resp)
		}
	}
	t.Logf("edge steps per first evaluation: %d to %d of %d dense (%.1f%% to %.1f%%)",
		least, most, dense, 100*float64(least)/float64(dense), 100*float64(most)/float64(dense))

	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	before := obs.CaptureCosts()
	for _, key := range keys {
		spec := instanceScores[key.score].spec
		resp := ask(spec, key.k)
		if got := answerBytes(t, resp); resp.Cached || !resp.Explain.ValueReused || !bytes.Equal(got, first[key]) {
			t.Fatalf("%s k=%d again (cached=%v valueReused=%v): %s, first answer %s", spec.Name, key.k,
				resp.Cached, resp.Explain.ValueReused, got, first[key])
		}
	}
	if c := obs.CaptureCosts().Delta(before); c["ovm_opinion_diffusions_total"] != 0 || c["ovm_opinion_edge_steps_total"] != 0 ||
		c["ovm_greedy_prefix_value_hits_total"] != int64(len(keys)) {
		t.Errorf("the %d keys again: cost %v, want no diffusion, no edge step and %d value hits", len(keys), c, len(keys))
	}
}

// TestDeadlineMidEvaluationReturns504 is the cancellation contract of the
// exact evaluation: /v1/evaluate and /v1/wins, whose only work is the
// target's diffusion once the memo is warm, stop at the next step boundary
// when the deadline expires — no diffusion completes, whether its steps are
// dense (the dense fixture trips the saturation guard at step 1) or frontier
// steps (the sparse one never does) — and answer 504; the same request then
// computes a body byte-identical to a service that never saw a deadline. A
// deadline that expires while the epoch's rows are still being built, in the
// competitor rows or in the target's trajectory, memoises nothing.
func TestDeadlineMidEvaluationReturns504(t *testing.T) {
	t.Run("dense", func(t *testing.T) {
		sys, idx := testWorld(t)
		deadlineMidEvaluation(t, sys, idx)
	})
	t.Run("sparse", func(t *testing.T) {
		sys, idx := sparseWorld(t)
		deadlineMidEvaluation(t, sys, idx)
	})
}

func deadlineMidEvaluation(t *testing.T, sys *opinion.System, idx *serialize.Index) {
	clean := httptest.NewServer(newTestService(t, idx).Handler())
	defer clean.Close()

	var polls atomic.Int64 // > 0 arms the next computation
	cfg := service.Config{}
	cfg.SetComputeContext(func(ctx context.Context) context.Context {
		if n := polls.Swap(0); n > 0 {
			// A deadline that expires at a chosen cancellation point
			// instead of at a wall-clock instant.
			c := newCountdown(ctx, n)
			c.err = context.DeadlineExceeded
			return c
		}
		return ctx
	})
	svc := service.New(cfg)
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	post := func(base, path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: %v in %q", path, err, raw)
		}
		delete(m, "elapsedMs")
		out, _ := json.Marshal(m) // a map of decoded JSON values always marshals
		return resp.StatusCode, out
	}
	// expire arms the next computation with a deadline polls cancellation
	// points away, asks, and returns how many diffusions completed under it.
	expire := func(name, path, body string, n int64) int64 {
		t.Helper()
		before := obs.CaptureCosts()
		polls.Store(n)
		if status, got := post(ts.URL, path, body); status != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d %s, want 504", name, status, got)
		}
		return obs.CaptureCosts().Delta(before)["ovm_opinion_diffusions_total"]
	}
	// Warm the memo with a different key, so the armed requests spend their
	// polls in the target's diffusion.
	if status, body := post(ts.URL, "/v1/evaluate", `{"dataset":"world","score":{"name":"plurality"},"horizon":8,"seeds":[9]}`); status != http.StatusOK {
		t.Fatalf("warm-up: %d %s", status, body)
	}
	for _, path := range []string{"/v1/evaluate", "/v1/wins"} {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("%s P=%d", path, par)
			// The response cache ignores parallelism: give each P its own key.
			body := fmt.Sprintf(`{"dataset":"world","score":{"name":"borda"},"horizon":8,"seeds":[1,2,%d],"parallelism":%d}`, 10+par, par)
			// A step of these one-chunk graphs polls once, frontier or dense:
			// the deadline expires in step 5 of 8.
			if d := expire(name, path, body, 5); d != 0 {
				t.Errorf("%s: %d diffusions completed under the expired deadline, want 0", name, d)
			}
			status, got := post(ts.URL, path, body)
			wantStatus, want := post(clean.URL, path, body)
			if status != http.StatusOK || wantStatus != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s: re-query %d %s, never-cancelled service %d %s", name, status, got, wantStatus, want)
			}
		}
	}
	// Cold horizons: the deadline expires in the first competitor row, then
	// two steps into the target's trajectory.
	competitors := int64(sys.R() - 1)
	for horizon, inTrajectory := range map[int64]bool{7: false, 6: true} {
		name := fmt.Sprintf("cold horizon %d", horizon)
		body := fmt.Sprintf(`{"dataset":"world","score":{"name":"borda"},"horizon":%d,"seeds":[1,2,3]}`, horizon)
		n, wantDone := int64(3), int64(0)
		if inTrajectory {
			n, wantDone = competitors*horizon+3, competitors
		}
		resident := svc.EpochMemoResident("world")
		if d := expire(name, "/v1/evaluate", body, n); d != wantDone {
			t.Errorf("%s: %d diffusions completed under the expired deadline, want %d", name, d, wantDone)
		}
		if b := svc.EpochMemoResident("world"); b != resident {
			t.Errorf("%s: the epoch memo went from %d to %d bytes under the expired deadline", name, resident, b)
		}
		before := obs.CaptureCosts()
		status, got := post(ts.URL, "/v1/evaluate", body)
		wantStatus, want := post(clean.URL, "/v1/evaluate", body)
		if status != http.StatusOK || wantStatus != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: re-query %d %s, never-cancelled service %d %s", name, status, got, wantStatus, want)
		}
		// The clean service ran the same build: two misses, no hit.
		if c := obs.CaptureCosts().Delta(before); c["ovm_core_competitor_memo_misses_total"] != 2 || c["ovm_core_competitor_memo_hits_total"] != 0 {
			t.Errorf("%s: re-query cost %v, want it to build the rows it found missing", name, c)
		}
	}
	if st := svc.StatsSnapshot(); st.Timeouts != 6 {
		t.Errorf("timeouts counter = %d, want 6", st.Timeouts)
	}
}
