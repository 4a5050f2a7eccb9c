package service_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ovm/internal/service"
)

// stripExplain returns resp marshaled with its explain block removed and
// its elapsedMs overwritten by ref's (wall-clock is per-delivery and can
// never be byte-stable). Everything else must match ref byte-for-byte.
func normalizeJSON(t *testing.T, resp any, elapsedMs float64) []byte {
	t.Helper()
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "explain")
	m["elapsedMs"] = elapsedMs
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExplainEquivalence is the EXPLAIN wire contract: at parallelism
// 1/4/0, pre- and post-update, an explain:true response is byte-identical
// to the plain response once the explain block is stripped — on all four
// query endpoints, for both the computed and the cached delivery. Two
// identically built services answer the two variants so both sides see
// the same cache state.
func TestExplainEquivalence(t *testing.T) {
	_, idx := testWorld(t)
	batch := testBatch(t, idx)
	svcPlain := newTestService(t, idx)
	svcExplain := newTestService(t, idx)

	check := func(t *testing.T, par int) {
		// Parallelism is excluded from the cache key by design, so each
		// parallelism level starts from a cold cache to get a computed
		// first round.
		svcPlain.ResetCache()
		svcExplain.ResetCache()
		type pair struct {
			name  string
			plain func() any
			expl  func() (any, *service.ExplainBlock)
		}
		sel := func(svc *service.Service, explain bool) (*service.SelectSeedsResponse, *service.Error) {
			req := selectReq("RS", "plurality", tdTheta)
			req.Parallelism = par
			req.Explain = explain
			return svc.SelectSeeds(req)
		}
		eval := func(svc *service.Service, explain bool) (*service.EvaluateResponse, *service.Error) {
			return svc.Evaluate(&service.EvaluateRequest{
				Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
				Horizon: tdHorizon, Target: 0, Seeds: []int32{1, 2, 3},
				Parallelism: par, Explain: explain,
			})
		}
		wins := func(svc *service.Service, explain bool) (*service.WinsResponse, *service.Error) {
			return svc.Wins(&service.EvaluateRequest{
				Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
				Horizon: tdHorizon, Target: 0, Seeds: []int32{1, 2, 3},
				Parallelism: par, Explain: explain,
			})
		}
		minw := func(svc *service.Service, explain bool) (*service.MinSeedsResponse, *service.Error) {
			return svc.MinSeedsToWin(&service.MinSeedsRequest{
				Dataset: "world", Method: "RS", Score: service.ScoreSpec{Name: "plurality"},
				Horizon: tdHorizon, Target: 0, Seed: tdSeed, Theta: tdTheta,
				Parallelism: par, Explain: explain,
			})
		}
		pairs := []pair{
			{"select-seeds", func() any {
				r, serr := sel(svcPlain, false)
				if serr != nil {
					t.Fatal(serr)
				}
				return r
			}, func() (any, *service.ExplainBlock) {
				r, serr := sel(svcExplain, true)
				if serr != nil {
					t.Fatal(serr)
				}
				return r, r.Explain
			}},
			{"evaluate", func() any {
				r, serr := eval(svcPlain, false)
				if serr != nil {
					t.Fatal(serr)
				}
				return r
			}, func() (any, *service.ExplainBlock) {
				r, serr := eval(svcExplain, true)
				if serr != nil {
					t.Fatal(serr)
				}
				return r, r.Explain
			}},
			{"wins", func() any {
				r, serr := wins(svcPlain, false)
				if serr != nil {
					t.Fatal(serr)
				}
				return r
			}, func() (any, *service.ExplainBlock) {
				r, serr := wins(svcExplain, true)
				if serr != nil {
					t.Fatal(serr)
				}
				return r, r.Explain
			}},
			{"min-seeds-to-win", func() any {
				r, serr := minw(svcPlain, false)
				if serr != nil {
					t.Fatal(serr)
				}
				return r
			}, func() (any, *service.ExplainBlock) {
				r, serr := minw(svcExplain, true)
				if serr != nil {
					t.Fatal(serr)
				}
				return r, r.Explain
			}},
		}
		for _, p := range pairs {
			// Two rounds: the first computes, the second serves from cache.
			// Equivalence must hold for both.
			for round, wantCached := range []bool{false, true} {
				plainResp := p.plain()
				explResp, block := p.expl()
				if block == nil || block.Span == nil {
					t.Fatalf("%s round %d: explain:true returned no explain block", p.name, round)
				}
				got := normalizeJSON(t, explResp, 0)
				want := normalizeJSON(t, plainResp, 0)
				if string(got) != string(want) {
					t.Errorf("%s round %d (cached=%v): stripped explain response differs\n got: %s\nwant: %s",
						p.name, round, wantCached, got, want)
				}
				if round == 0 && len(block.Cost) == 0 {
					t.Errorf("%s: computed delivery has an empty cost snapshot", p.name)
				}
				if round == 1 && len(block.Cost) != 0 {
					t.Errorf("%s: cached delivery claims compute cost %v", p.name, block.Cost)
				}
			}
		}
	}

	for _, par := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("P=%d/pre-update", par), func(t *testing.T) { check(t, par) })
	}
	// Mutate both services identically; explain equivalence must survive
	// the epoch bump (new cache generation, repaired artifacts).
	for _, svc := range []*service.Service{svcPlain, svcExplain} {
		if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: batch}); serr != nil {
			t.Fatal(serr)
		}
	}
	for _, par := range []int{1, 4, 0} {
		t.Run(fmt.Sprintf("P=%d/post-update", par), func(t *testing.T) { check(t, par) })
	}
}

// TestExplainRoundsReconcile is the acceptance check for the cost
// accounting's global/round mirror invariant: an uncached select-seeds
// explain reports per-round walks-truncated / postings-blocks-decoded
// counts that reconcile with the query's cost-snapshot deltas for the same
// counters — the same reconciliation an operator does between an explain
// block and two /metrics scrapes around the query. The rounds this
// computation ran are rounds[roundsReused:]; the ones before came from the
// epoch's seed prefix and cost it the replay line instead. So
// Σ rounds[roundsReused:] + replay == cost, for a first ask (nothing
// reused), a continuation (some) and a slice (all, and no walk work). A slice
// at a k the epoch has scored reuses the value too, and its cost block then
// names no ovm_opinion_* counter at all.
func TestExplainRoundsReconcile(t *testing.T) {
	_, idx := testWorld(t)
	for _, par := range []int{1, 4, 0} {
		svc := newTestService(t, idx)
		for _, c := range []struct {
			name        string
			k, reused   int
			valueReused bool
		}{
			{"first ask", tdK, 0, false},
			{"continuation", tdK + 5, tdK, false},
			{"slice", tdK - 2, tdK - 2, false},
			{"scored slice", tdK, tdK, true},
		} {
			svc.ResetCache() // the scored slice repeats the first ask's key
			req := selectReq("RS", "plurality", tdTheta)
			req.K = c.k
			req.Parallelism = par
			req.Explain = true
			resp, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatal(serr)
			}
			if resp.Cached || resp.Explain == nil {
				t.Fatalf("P=%d %s: want an uncached explained response, got cached=%v explain=%v", par, c.name, resp.Cached, resp.Explain)
			}
			ex := resp.Explain
			if len(ex.Rounds) != c.k || ex.RoundsReused != c.reused {
				t.Fatalf("P=%d %s: %d rounds reported with %d reused, want k=%d with %d reused", par, c.name, len(ex.Rounds), ex.RoundsReused, c.k, c.reused)
			}
			if replayed := c.reused > 0 && c.reused < c.k; (ex.Replay != nil) != replayed {
				t.Fatalf("P=%d %s: replay line %+v, want one exactly when a prefix was re-applied", par, c.name, ex.Replay)
			}
			var truncated, blocks, entries int64
			if ex.Replay != nil {
				truncated, blocks, entries = ex.Replay.WalksTruncated, ex.Replay.PostingsBlocks, ex.Replay.PostingsEntries
			}
			for i, r := range ex.Rounds {
				if r.Seed != resp.Seeds[i] {
					t.Errorf("P=%d %s round %d: explain seed %d, response seed %d", par, c.name, i, r.Seed, resp.Seeds[i])
				}
				if i >= ex.RoundsReused {
					truncated += r.WalksTruncated
					blocks += r.PostingsBlocks
					entries += r.PostingsEntries
				}
			}
			cost := ex.Cost
			if ex.ValueReused != c.valueReused {
				t.Errorf("P=%d %s: valueReused=%v, want %v", par, c.name, ex.ValueReused, c.valueReused)
			}
			if !c.valueReused && cost["ovm_opinion_diffusions_total"] == 0 {
				t.Errorf("P=%d %s: an unscored key ran no diffusion: %v", par, c.name, cost)
			}
			for name, v := range cost {
				if c.valueReused && strings.HasPrefix(name, "ovm_opinion_") {
					t.Errorf("P=%d %s: the value was reused, yet the cost block has %s=%d", par, c.name, name, v)
				}
			}
			if got := cost["ovm_walks_truncated_total"]; got != truncated {
				t.Errorf("P=%d %s: rounds sum %d walks truncated, cost snapshot says %d", par, c.name, truncated, got)
			}
			if got := cost["ovm_postings_blocks_total"]; got != blocks {
				t.Errorf("P=%d %s: rounds sum %d postings blocks, cost snapshot says %d", par, c.name, blocks, got)
			}
			if got := cost["ovm_postings_entries_total"]; got != entries {
				t.Errorf("P=%d %s: rounds sum %d postings entries, cost snapshot says %d", par, c.name, entries, got)
			}
			if got := cost["ovm_greedy_rounds_run_total"]; got != int64(c.k-c.reused) {
				t.Errorf("P=%d %s: cost snapshot says %d greedy rounds run, want %d", par, c.name, got, c.k-c.reused)
			}
			if worked := c.reused < c.k; worked != (entries > 0 && truncated > 0) {
				t.Errorf("P=%d %s: implausible walk work (entries=%d truncated=%d)", par, c.name, entries, truncated)
			}
		}
	}
}
