package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/service"
	"ovm/internal/sketch"
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

// competitorDrift moves a competitor's opinions on a quarter of the nodes, so
// the competitor rows of the next epoch differ from the previous epoch's: an
// answer computed from stale memo rows cannot match the reference.
func competitorDrift(t *testing.T, svc *service.Service, sys *opinion.System) *opinion.System {
	t.Helper()
	var batch dynamic.Batch
	for v := int32(0); v < 30; v++ {
		batch = append(batch, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 3 * v, Value: 0.99})
	}
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
// per-epoch competitor memo: for the five scores, at P = 1, 2 and 4, before
// and after an update batch, select-seeds, evaluate, wins and min-seeds
// answered from the shared memo equal the from-scratch opinion.Matrix +
// Score.Eval reference bit for bit. One goroutine per score queries the same
// service at once, so under -race a write into a shared row is reported;
// after the update the references come from the mutated system, so the
// answers must have been computed from the new epoch's rows.
func TestMemoBackedEvaluationMatchesFromScratch(t *testing.T) {
	sys, idx := testWorld(t)
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
			wantMin, minErr := core.MinSeedsToWin(sys, 0, tdHorizon, score, sketch.Selector(
				core.Problem{Sys: sys, Horizon: tdHorizon, K: 1, Score: score},
				sketch.Config{FixedTheta: tdTheta, Seed: tdSeed, Parallelism: 1}))
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
}

// TestColdSelectDiffusionCount pins what a cold select-seeds pays: r
// diffusions when it is the first to need the epoch's competitor rows, and
// exactly one — the target's — from then on; an update starts a new epoch
// with an empty memo. The counts are read from the EXPLAIN cost block.
func TestColdSelectDiffusionCount(t *testing.T) {
	sys, idx := testWorld(t)
	svc := newTestService(t, idx)
	defer svc.Close()
	r, m := int64(sys.R()), int64(sys.Candidate(0).G.M())
	query := func(score string, want, wantHits, wantMisses int64) {
		t.Helper()
		req := selectReq("RS", score, tdTheta)
		req.Explain = true
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			t.Fatal(serr)
		}
		if resp.Cached {
			t.Fatalf("%s: served from the response cache", score)
		}
		cost := resp.Explain.Cost
		if got := cost["ovm_opinion_diffusions_total"]; got != want {
			t.Errorf("%s: %d diffusions, want %d", score, got, want)
		}
		if got := cost["ovm_opinion_edge_steps_total"]; got != want*tdHorizon*m {
			t.Errorf("%s: %d edge steps, want %d diffusions x horizon %d x %d edges", score, got, want, tdHorizon, m)
		}
		if hits, misses := cost["ovm_core_competitor_memo_hits_total"], cost["ovm_core_competitor_memo_misses_total"]; hits != wantHits || misses != wantMisses {
			t.Errorf("%s: memo hits/misses %d/%d, want %d/%d", score, hits, misses, wantHits, wantMisses)
		}
	}
	query("plurality", r, 0, 1)
	query("copeland", 1, 1, 0)
	query("cumulative", 1, 1, 0)
	competitorDrift(t, svc, sys)
	query("plurality", r, 0, 1)
	query("borda", 1, 1, 0)
}

// TestDeadlineMidEvaluationReturns504 is the cancellation contract of the
// exact evaluation: /v1/evaluate and /v1/wins, whose only work is the
// target's diffusion once the memo is warm, stop at the next step boundary
// when the deadline expires — no diffusion completes — and answer 504; the
// same request then computes a body byte-identical to a service that never
// saw a deadline.
func TestDeadlineMidEvaluationReturns504(t *testing.T) {
	_, idx := testWorld(t)
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
	// Warm the memo with a different key, so the armed requests spend their
	// polls in the target's diffusion.
	if status, body := post(ts.URL, "/v1/evaluate", `{"dataset":"world","score":{"name":"plurality"},"horizon":8,"seeds":[9]}`); status != http.StatusOK {
		t.Fatalf("warm-up: %d %s", status, body)
	}
	for _, path := range []string{"/v1/evaluate", "/v1/wins"} {
		for _, par := range []int{1, 4} {
			// The response cache ignores parallelism: give each P its own key.
			body := fmt.Sprintf(`{"dataset":"world","score":{"name":"borda"},"horizon":8,"seeds":[1,2,%d],"parallelism":%d}`, 10+par, par)
			before := obs.CaptureCosts()
			polls.Store(5) // two polls per step on this one-chunk graph: expires in step 3 of 8
			status, got := post(ts.URL, path, body)
			if status != http.StatusGatewayTimeout {
				t.Fatalf("%s P=%d: status %d %s, want 504", path, par, status, got)
			}
			if d := obs.CaptureCosts().Delta(before)["ovm_opinion_diffusions_total"]; d != 0 {
				t.Errorf("%s P=%d: %d diffusions completed under the expired deadline, want 0", path, par, d)
			}
			status, got = post(ts.URL, path, body)
			wantStatus, want := post(clean.URL, path, body)
			if status != http.StatusOK || wantStatus != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("%s P=%d: re-query %d %s, never-cancelled service %d %s", path, par, status, got, wantStatus, want)
			}
		}
	}
	if st := svc.StatsSnapshot(); st.Timeouts != 4 {
		t.Errorf("timeouts counter = %d, want 4", st.Timeouts)
	}
}
