package ovm_test

// One testing.B benchmark per paper artifact (table/figure) plus the
// ablation studies, all driving the experiment registry at smoke-test
// scale so `go test -bench=.` terminates quickly on a laptop. For
// paper-shape output at full scale use cmd/ovmbench (e.g.
// `go run ./cmd/ovmbench -all`).

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/experiments"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/postings"
	"ovm/internal/rwalk"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Registry[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if err := r(io.Discard, experiments.Params{Quick: true, Seed: int64(i) + 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1RunningExample regenerates Table I (and asserts every cell
// against the paper).
func BenchmarkTable1RunningExample(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2SandwichRatio regenerates the sandwich-ratio study (Fig 2).
func BenchmarkFig2SandwichRatio(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3ThetaCurve regenerates the Eq-44 admissibility curve (Fig 3).
func BenchmarkFig3ThetaCurve(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkTable3Datasets regenerates the dataset characteristics table.
func BenchmarkTable3Datasets(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4CaseStudy regenerates the ACM-election case study
// (Table IV / Fig 4).
func BenchmarkTable4CaseStudy(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig6PluralityVsK regenerates the plurality-vs-k sweep (Fig 6).
func BenchmarkFig6PluralityVsK(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7CopelandVsK regenerates the Copeland-vs-k sweep (Fig 7).
func BenchmarkFig7CopelandVsK(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8CumulativeVsK regenerates the cumulative-vs-k sweep (Fig 8).
func BenchmarkFig8CumulativeVsK(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9SeedOverlap regenerates the plurality-variant overlap study
// (Fig 9).
func BenchmarkFig9SeedOverlap(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10RankDistribution regenerates the rank-position histogram
// (Fig 10).
func BenchmarkFig10RankDistribution(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable6MinSeedsToWin regenerates the FJ-Vote-Win table (Table VI).
func BenchmarkTable6MinSeedsToWin(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig11EIS regenerates the expected-influence-spread comparison
// (Fig 11).
func BenchmarkFig11EIS(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12HorizonSweep regenerates the horizon study (Fig 12).
func BenchmarkFig12HorizonSweep(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13ThetaPlurality regenerates the plurality-vs-θ study (Fig 13).
func BenchmarkFig13ThetaPlurality(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14ThetaCopeland regenerates the Copeland-vs-θ study (Fig 14).
func BenchmarkFig14ThetaCopeland(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15EpsilonSweep regenerates the ε sensitivity study (Fig 15).
func BenchmarkFig15EpsilonSweep(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16RhoSweep regenerates the ρ sensitivity study (Fig 16).
func BenchmarkFig16RhoSweep(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17Scalability regenerates the scalability/memory study
// (Fig 17).
func BenchmarkFig17Scalability(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18OpinionChange regenerates the Appendix-B churn study
// (Fig 18).
func BenchmarkFig18OpinionChange(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkFig19MuSweep regenerates the Appendix-D µ study (Fig 19).
func BenchmarkFig19MuSweep(b *testing.B) { benchExperiment(b, "fig19") }

// BenchmarkAblationCELF measures plain greedy vs CELF.
func BenchmarkAblationCELF(b *testing.B) { benchExperiment(b, "ablation-celf") }

// BenchmarkAblationTruncation measures post-generation truncation vs
// per-round walk regeneration.
func BenchmarkAblationTruncation(b *testing.B) { benchExperiment(b, "ablation-truncation") }

// BenchmarkAblationSketchShape measures walk sketches vs RR-set sketches.
func BenchmarkAblationSketchShape(b *testing.B) { benchExperiment(b, "ablation-sketch-shape") }

// BenchmarkExtRobustness re-evaluates FJ-optimized seeds under the HK and
// voter dynamics (future-work extension).
func BenchmarkExtRobustness(b *testing.B) { benchExperiment(b, "ext-robustness") }

// BenchmarkExtBorda runs the Borda-count extension through all methods.
func BenchmarkExtBorda(b *testing.B) { benchExperiment(b, "ext-borda") }

// BenchmarkParallelScaling sweeps the engine worker count over DM/RW/RS
// and verifies the determinism contract (identical seeds at every
// Parallelism). Run cmd/ovmbench -exp parallel-scaling at full scale for
// paper-shape speedup numbers on a multi-core machine.
func BenchmarkParallelScaling(b *testing.B) { benchExperiment(b, "parallel-scaling") }

// BenchmarkServiceQuery measures the ovmd serving path on the 12k-node
// sweep graph (the parallel-scaling dataset): one select-seeds query
// against a service with a precomputed sketch index. cold resets the LRU
// response cache each iteration (full indexed computation: clone, greedy,
// exact evaluation); warm repeats the identical request (cache hit). The
// cold/warm gap is the serving-path number future PRs must not regress.
func BenchmarkServiceQuery(b *testing.B) {
	const (
		horizon = 10
		theta   = 1 << 14
		seed    = int64(42)
		k       = 20
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target: d.DefaultTarget, Horizon: horizon, Seed: seed, SketchTheta: theta,
	})
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Config{})
	if err := svc.AddIndex("sweep", idx); err != nil {
		b.Fatal(err)
	}
	req := &service.SelectSeedsRequest{
		Dataset: "sweep",
		Method:  "RS",
		Score:   service.ScoreSpec{Name: "plurality"},
		K:       k,
		Horizon: horizon,
		Target:  d.DefaultTarget,
		Seed:    seed,
		Theta:   theta,
	}
	query := func(b *testing.B) *service.SelectSeedsResponse {
		b.Helper()
		resp, serr := svc.SelectSeeds(req)
		if serr != nil {
			b.Fatal(serr)
		}
		return resp
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc.ResetCache()
			if resp := query(b); resp.Cached || !resp.FromIndex {
				b.Fatalf("cold query must compute from the index (cached=%v fromIndex=%v)", resp.Cached, resp.FromIndex)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		query(b) // prime the cache entry
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := query(b); !resp.Cached {
				b.Fatal("warm query must be served from the cache")
			}
		}
	})
}

// BenchmarkSelection measures the per-round cost of the greedy selection
// loop on the 12k-node sweep graph for all five voting scores. Each
// sub-benchmark also self-checks the determinism contract — parallelism
// 1, 4 and 0 must produce bit-identical seeds, gains and value — and reports
// determinism_ok=1 only when it holds, so the recorded BENCH_<sha>.json
// carries the evidence beside the cost counters (CI fails if either is
// missing). Equality with the from-the-definition oracle is a test
// (internal/walks/equiv_test.go), not a benchmark reading.
func BenchmarkSelection(b *testing.B) {
	const (
		horizon = 10
		seed    = int64(42)
		k       = 50
		lambda  = 25
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	prob := &core.Problem{Sys: d.Sys, Target: d.DefaultTarget, Horizon: horizon, K: k, Score: voting.Cumulative{}}
	n := d.Sys.N()
	plan := make([]int32, n)
	for i := range plan {
		plan[i] = lambda
	}
	base, err := rwalk.GenerateSet(prob, plan, seed, 0)
	if err != nil {
		b.Fatal(err)
	}
	base.EnsureIndex() // clones share the index; its build cost is not part of a round
	comp := core.CompetitorOpinions(d.Sys, d.DefaultTarget, horizon, 0)
	init := d.Sys.Candidate(d.DefaultTarget).Init
	newEst := func(b *testing.B, par int) *walks.Estimator {
		b.Helper()
		est, err := walks.NewEstimator(base.Clone(), d.DefaultTarget, init, comp, walks.UniformOwnerWeights(base), par)
		if err != nil {
			b.Fatal(err)
		}
		return est
	}
	scores := []voting.Score{
		voting.Cumulative{},
		voting.Plurality{},
		voting.PApproval{P: 2},
		voting.Positional{P: 2, Omega: []float64{1, 0.5}},
		voting.Copeland{},
	}
	for _, score := range scores {
		b.Run(score.Name(), func(b *testing.B) {
			// The serial run is what the P=4 and P=0 runs must reproduce.
			refRes, err := newEst(b, 1).SelectGreedy(k, score)
			if err != nil {
				b.Fatal(err)
			}
			mustMatch := func(res *core.GreedyResult, par int) {
				b.Helper()
				for i := range refRes.Seeds {
					if refRes.Seeds[i] != res.Seeds[i] || refRes.Gains[i] != res.Gains[i] {
						b.Fatalf("P=%d round %d: (seed, gain) = (%d, %v), P=1 (%d, %v)",
							par, i, res.Seeds[i], res.Gains[i], refRes.Seeds[i], refRes.Gains[i])
					}
				}
				if refRes.Value != res.Value {
					b.Fatalf("P=%d: value %v, P=1 %v", par, res.Value, refRes.Value)
				}
			}
			res, err := newEst(b, 4).SelectGreedy(k, score)
			if err != nil {
				b.Fatal(err)
			}
			mustMatch(res, 4)
			b.ResetTimer()
			var newDur time.Duration
			costBefore := obs.CaptureCosts()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				est := newEst(b, 0)
				b.StartTimer()
				start := time.Now()
				res, err := est.SelectGreedy(k, score)
				newDur += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				mustMatch(res, 0)
				b.StartTimer()
			}
			costDelta := obs.CaptureCosts().Delta(costBefore)
			perRound := float64(newDur.Nanoseconds()) / float64(b.N) / k
			b.ReportMetric(perRound, "ns/round")
			b.ReportMetric(1, "determinism_ok")
			// Work done per selection, from the engine cost counters — the
			// trajectory records effort alongside wall-clock.
			b.ReportMetric(float64(costDelta["ovm_postings_blocks_total"])/float64(b.N), "postings_blocks_decoded")
			b.ReportMetric(float64(costDelta["ovm_walks_truncated_total"])/float64(b.N), "walks_truncated")
		})
	}
}

// BenchmarkEvaluateExact measures the exact evaluation that closes every
// cold query, on the 12k-node sweep graph with a k=50 seed set: "memo" scores
// against competitor rows and the target's seedless trajectory computed once
// (what the daemon pays per request once an epoch's memo is warm — one
// frontier diffusion), "memo-dense" against the rows alone (one dense
// diffusion), "from-scratch" re-diffuses all r candidates (core.EvaluateExact,
// the reference the benchmark oracle uses). All must return the same value;
// diffusions/op and edge_steps/op come from the cost counters, so the
// trajectory records the work beside the wall-clock.
func BenchmarkEvaluateExact(b *testing.B) {
	const (
		horizon = 10
		seed    = int64(42)
		k       = 50
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int32, k)
	for i := range seeds {
		seeds[i] = int32(i * (d.Sys.N() / k))
	}
	score := voting.Plurality{}
	in, err := core.NewInstance(nil, d.Sys, d.DefaultTarget, horizon, 0)
	if err != nil {
		b.Fatal(err)
	}
	memo := *in
	if memo.Traj, err = opinion.Trajectory(nil, d.Sys.Candidate(d.DefaultTarget), horizon, nil, 0); err != nil {
		b.Fatal(err)
	}
	want, err := core.EvaluateExact(d.Sys, d.DefaultTarget, horizon, score, seeds, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		eval func() (float64, error)
	}{
		{"memo", func() (float64, error) { return memo.Evaluate(nil, score, seeds) }},
		{"memo-dense", func() (float64, error) { return in.Evaluate(nil, score, seeds) }},
		{"from-scratch", func() (float64, error) {
			return core.EvaluateExact(d.Sys, d.DefaultTarget, horizon, score, seeds, 0)
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			costBefore := obs.CaptureCosts()
			for i := 0; i < b.N; i++ {
				got, err := mode.eval()
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("exact value %v, serial from-scratch reference %v", got, want)
				}
			}
			cost := obs.CaptureCosts().Delta(costBefore)
			b.ReportMetric(float64(cost["ovm_opinion_diffusions_total"])/float64(b.N), "diffusions/op")
			b.ReportMetric(float64(cost["ovm_opinion_edge_steps_total"])/float64(b.N), "edge_steps/op")
		})
	}
}

// BenchmarkSelectSweep is the traffic the per-epoch greedy prefix exists for:
// the 5 scores x k = 1..50 select-seeds keys of one epoch (the cold-select key
// set), through Service.SelectSeedsCtx on the 12k-node sweep graph, in
// ascending order (every request after a score's first extends its prefix),
// descending (every one slices) and shuffled, each op starting from a service
// nobody has queried; plus one min-seeds, whose probes read the same prefix.
// Every response is checked against a service that answers that key alone,
// and min-seeds against the per-probe sketch.Selector. rounds_run/op is the
// count of greedy rounds computed: each (score, k) round once, 250 per sweep
// in any order, and for min-seeds the doubling bracket that holds k*.
func BenchmarkSelectSweep(b *testing.B) {
	const (
		horizon = 10
		theta   = 4096
		seed    = int64(42)
		maxK    = 50
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target: d.DefaultTarget, Horizon: horizon, Seed: seed, SketchTheta: theta,
	})
	if err != nil {
		b.Fatal(err)
	}
	newService := func(b *testing.B) *service.Service {
		b.Helper()
		svc := service.New(service.Config{})
		if err := svc.AddIndex("sweep", idx); err != nil {
			b.Fatal(err)
		}
		return svc
	}
	scores := []service.ScoreSpec{{Name: "cumulative"}, {Name: "plurality"}, {Name: "p-approval", P: 2}, {Name: "borda"}, {Name: "copeland"}}
	type key struct {
		req  *service.SelectSeedsRequest
		want *service.SelectSeedsResponse // from a service that answered only this key
	}
	var ascending []key
	for k := 1; k <= maxK; k++ {
		for _, sc := range scores {
			req := &service.SelectSeedsRequest{Dataset: "sweep", Method: "RS", Score: sc, K: k,
				Horizon: horizon, Target: d.DefaultTarget, Seed: seed, Theta: theta}
			svc := newService(b)
			want, serr := svc.SelectSeedsCtx(context.Background(), req)
			svc.Close()
			if serr != nil {
				b.Fatal(serr)
			}
			ascending = append(ascending, key{req, want})
		}
	}
	descending := make([]key, len(ascending))
	for i, k := range ascending {
		descending[len(ascending)-1-i] = k
	}
	shuffled := append([]key(nil), ascending...)
	rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	roundsRun := func(before obs.CostSnapshot) float64 {
		return float64(obs.CaptureCosts().Delta(before)["ovm_greedy_rounds_run_total"])
	}
	for _, order := range []struct {
		name string
		keys []key
	}{{"ascending", ascending}, {"descending", descending}, {"shuffled", shuffled}} {
		b.Run(order.name, func(b *testing.B) {
			before := obs.CaptureCosts()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := newService(b)
				b.StartTimer()
				for _, k := range order.keys {
					got, serr := svc.SelectSeedsCtx(context.Background(), k.req)
					if serr != nil {
						b.Fatal(serr)
					}
					if got.Cached || !got.FromIndex || !reflect.DeepEqual(got.Seeds, k.want.Seeds) || got.ExactValue != k.want.ExactValue {
						b.Fatalf("%s k=%d: seeds %v value %v (cached=%v fromIndex=%v), answered alone %v %v",
							k.req.Score.Name, k.req.K, got.Seeds, got.ExactValue, got.Cached, got.FromIndex, k.want.Seeds, k.want.ExactValue)
					}
				}
				b.StopTimer()
				svc.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(order.keys)), "ns/request")
			b.ReportMetric(roundsRun(before)/float64(b.N), "rounds_run/op")
		})
	}
	b.Run("min-seeds", func(b *testing.B) {
		// The default target already wins with no seeds; its rival needs some.
		rival := 1 - d.DefaultTarget
		ridx, err := service.BuildIndex(d.Sys, service.BuildOptions{Target: rival, Horizon: horizon, Seed: seed, SketchTheta: theta})
		if err != nil {
			b.Fatal(err)
		}
		req := &service.MinSeedsRequest{Dataset: "sweep", Method: "RS", Score: service.ScoreSpec{Name: "plurality"},
			Horizon: horizon, Target: rival, Seed: seed, Theta: theta}
		base := core.Problem{Sys: d.Sys, Target: rival, Horizon: horizon, K: 1, Score: voting.Plurality{}}
		refStart := time.Now()
		want, err := core.MinSeedsToWin(d.Sys, rival, horizon, voting.Plurality{},
			sketch.Selector(base, sketch.Config{FixedTheta: theta, Seed: seed}))
		if err != nil {
			b.Fatal(err)
		}
		refDur := time.Since(refStart) // competitor rows, sketches and k rounds anew per probe
		bracket := 1
		for bracket < len(want) {
			bracket *= 2
		}
		if len(want) == 0 {
			b.Fatal("fixture: the rival wins with no seeds, so no probe would run")
		}
		b.ResetTimer()
		before := obs.CaptureCosts()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			svc := service.New(service.Config{})
			if err := svc.AddIndex("sweep", ridx); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			got, serr := svc.MinSeedsToWinCtx(context.Background(), req)
			if serr != nil {
				b.Fatal(serr)
			}
			if !got.CanWin || !reflect.DeepEqual(got.Seeds, want) {
				b.Fatalf("min-seeds %v (canWin=%v), per-probe selector %v", got.Seeds, got.CanWin, want)
			}
			b.StopTimer()
			svc.Close()
			b.StartTimer()
		}
		run := roundsRun(before) / float64(b.N)
		if run != float64(bracket) {
			b.Fatalf("min-seeds with k*=%d computed %v greedy rounds, want the doubling bracket %d", len(want), run, bracket)
		}
		b.ReportMetric(run, "rounds_run/op")
		b.ReportMetric(float64(len(want)), "min_seeds")
		b.ReportMetric(float64(refDur.Nanoseconds()), "ns/op_per_probe_selector")
	})
}

// BenchmarkCostAccounting is the overhead guard for the engine cost
// counters: it runs the same indexed greedy selection with accounting on
// and off (interleaved, best-of so scheduler noise cancels) and fails if
// the enabled path costs more than 2% over the disabled one. It also
// re-checks determinism — accounting must never change a selected seed —
// and reports accounting_overhead_pct into the bench trajectory.
func BenchmarkCostAccounting(b *testing.B) {
	const (
		horizon = 10
		seed    = int64(42)
		k       = 50
		lambda  = 25
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	prob := &core.Problem{Sys: d.Sys, Target: d.DefaultTarget, Horizon: horizon, K: k, Score: voting.Cumulative{}}
	plan := make([]int32, d.Sys.N())
	for i := range plan {
		plan[i] = lambda
	}
	base, err := rwalk.GenerateSet(prob, plan, seed, 0)
	if err != nil {
		b.Fatal(err)
	}
	base.EnsureIndex()
	comp := core.CompetitorOpinions(d.Sys, d.DefaultTarget, horizon, 0)
	init := d.Sys.Candidate(d.DefaultTarget).Init
	score := voting.Plurality{}
	defer obs.SetCostAccounting(true)
	run := func(on bool) (time.Duration, *core.GreedyResult) {
		obs.SetCostAccounting(on)
		est, err := walks.NewEstimator(base.Clone(), d.DefaultTarget, init, comp, walks.UniformOwnerWeights(base), 0)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		res, err := est.SelectGreedy(k, score)
		dur := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		return dur, res
	}
	// One untimed warmup per mode so page faults and index sharing settle.
	run(true)
	run(false)
	bestOn, bestOff := time.Duration(0), time.Duration(0)
	var onRes, offRes *core.GreedyResult
	overhead := func() float64 {
		return 100 * (float64(bestOn) - float64(bestOff)) / float64(bestOff)
	}
	measure := func(reps int) {
		for i := 0; i < reps; i++ {
			durOn, rOn := run(true)
			durOff, rOff := run(false)
			onRes, offRes = rOn, rOff
			if bestOn == 0 || durOn < bestOn {
				bestOn = durOn
			}
			if bestOff == 0 || durOff < bestOff {
				bestOff = durOff
			}
		}
	}
	// At -benchtime 1x a best-of-1 comparison is pure scheduler noise.
	// Best-of only refines with more reps, so start from max(b.N, 5)
	// interleaved pairs and keep adding batches while the apparent
	// overhead still exceeds the gate; only a reading that persists at
	// the rep cap is a real regression rather than a noisy batch.
	reps := b.N
	if reps < 5 {
		reps = 5
	}
	b.ResetTimer()
	measure(reps)
	for total := reps; overhead() > 2.0 && total < 40; total += 5 {
		measure(5)
	}
	b.StopTimer()
	for i := range onRes.Seeds {
		if onRes.Seeds[i] != offRes.Seeds[i] || onRes.Gains[i] != offRes.Gains[i] {
			b.Fatalf("round %d: accounting changed the selection: on=(%d, %v) off=(%d, %v)",
				i, onRes.Seeds[i], onRes.Gains[i], offRes.Seeds[i], offRes.Gains[i])
		}
	}
	b.ReportMetric(overhead(), "accounting_overhead_pct")
	b.ReportMetric(float64(bestOn.Nanoseconds()), "on_ns")
	b.ReportMetric(float64(bestOff.Nanoseconds()), "off_ns")
	if pct := overhead(); pct > 2.0 {
		b.Errorf("cost accounting overhead %.2f%% exceeds the 2%% gate (on=%v off=%v)", pct, bestOn, bestOff)
	}
}

// BenchmarkIncrementalUpdate measures the dynamic-update path on the
// 12k-node sweep graph: applying a small mutation batch to a service with a
// fully populated index (sketches + RW walks + RR sets) via incremental
// repair, against rebuilding the same index from scratch on the mutated
// system. The incremental sub-benchmark reports speedup_x (one reference
// full build divided by the mean repair time) and invalidated_% (the share
// of sampled artifacts a batch actually regenerates) — the two numbers the
// live-update design is about.
func BenchmarkIncrementalUpdate(b *testing.B) {
	const (
		horizon = 10
		theta   = 1 << 14
		seed    = int64(42)
		rrSets  = 4096
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	buildOpts := service.BuildOptions{
		Target:       d.DefaultTarget,
		Horizon:      horizon,
		Seed:         seed,
		SketchTheta:  theta,
		IncludeWalks: true,
		RRSets:       rrSets,
	}
	idx, err := service.BuildIndex(d.Sys, buildOpts)
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Config{})
	if err := svc.AddIndex("sweep", idx); err != nil {
		b.Fatal(err)
	}
	n := int32(d.Sys.N())
	batchFor := func(i int) dynamic.Batch {
		base := int32(i*97) % (n - 600)
		return dynamic.Batch{
			{Kind: dynamic.OpAddEdge, From: base, To: base + 13, W: 1},
			{Kind: dynamic.OpAddEdge, From: base + 500, To: base + 7, W: 0.5},
			{Kind: dynamic.OpSetWeight, From: base + 1, To: base + 2, W: 2},
			{Kind: dynamic.OpSetOpinion, Cand: d.DefaultTarget, Node: base + 3, Value: 0.9},
			{Kind: dynamic.OpSetStubbornness, Cand: d.DefaultTarget, Node: base + 4, Value: 0.5},
		}
	}
	b.Run("incremental", func(b *testing.B) {
		// The speedup reference: the same rebuild-and-restore work an
		// iteration of the full-rebuild sub-benchmark performs, best of 3
		// runs so a one-off GC pause cannot skew the ratio. Both sides of
		// the ratio are reported as their own metrics (rebuild_restore_ns,
		// repair_ns), so speedup_x is verifiable from the record:
		// speedup_x = rebuild_restore_ns / repair_ns.
		var refBuild time.Duration
		for r := 0; r < 3; r++ {
			refStart := time.Now()
			refIdx, err := service.BuildIndex(d.Sys, buildOpts)
			if err != nil {
				b.Fatal(err)
			}
			refSvc := service.New(service.Config{})
			if err := refSvc.AddIndex("sweep", refIdx); err != nil {
				b.Fatal(err)
			}
			if dur := time.Since(refStart); refBuild == 0 || dur < refBuild {
				refBuild = dur
			}
		}
		var invalidated, total int
		b.ResetTimer()
		start := time.Now()
		costBefore := obs.CaptureCosts()
		for i := 0; i < b.N; i++ {
			resp, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "sweep", Ops: batchFor(i)})
			if serr != nil {
				b.Fatal(serr)
			}
			invalidated += resp.WalksInvalidated + resp.RRSetsInvalidated
			total += resp.WalksTotal + resp.RRSetsTotal
		}
		costDelta := obs.CaptureCosts().Delta(costBefore)
		elapsed := time.Since(start)
		if total > 0 {
			b.ReportMetric(100*float64(invalidated)/float64(total), "invalidated_%")
		}
		// Repair work per batch from the cost counters: bytes the repair
		// copy-on-wrote out of the mapped region, and the walk-invalidation
		// rate as the repair layer itself accounts it.
		b.ReportMetric(float64(costDelta["ovm_repair_copy_bytes_total"])/float64(b.N), "copy_on_repair_bytes")
		if seen := costDelta["ovm_repair_walks_seen_total"]; seen > 0 {
			b.ReportMetric(100*float64(costDelta["ovm_repair_walks_invalidated_total"])/float64(seen), "invalidated_walk_pct")
		} else {
			b.ReportMetric(0, "invalidated_walk_pct")
		}
		if elapsed > 0 {
			repairNs := float64(elapsed.Nanoseconds()) / float64(b.N)
			b.ReportMetric(repairNs, "repair_ns")
			b.ReportMetric(float64(refBuild.Nanoseconds()), "rebuild_restore_ns")
			b.ReportMetric(float64(refBuild.Nanoseconds())/repairNs, "speedup_x")
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		// The alternative a daemon without internal/dynamic has: rebuild
		// the index from scratch on the mutated system AND restore it into
		// servable form (what AddIndex does) — ApplyUpdates delivers the
		// latter, so the baseline must too.
		sys := d.Sys
		for i := 0; i < b.N; i++ {
			mutated, _, err := dynamic.ApplySystem(sys, batchFor(i))
			if err != nil {
				b.Fatal(err)
			}
			sys = mutated
			rebuilt, err := service.BuildIndex(sys, buildOpts)
			if err != nil {
				b.Fatal(err)
			}
			fresh := service.New(service.Config{})
			if err := fresh.AddIndex("sweep", rebuilt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIndexLoad measures the daemon startup load path on the 12k-node
// sweep graph with a fully populated index (sketches + RW walks + RR sets):
// the heap parse of the index file (read it whole, ReadIndex) against the
// zero-copy mmap open of the same file. v3-mmap reports the ratio as
// load_speedup_x (against an untimed best-of-2 heap reference), the
// byte-footprint split of the registered dataset (index_bytes on disk,
// mapped_bytes aliasing the file, heap_bytes resident), and the
// raw-vs-varint postings size ratio (postings_compression_x). The v3-heap
// run reports its own index_bytes / heap_bytes for the same dataset, so the
// trajectory records both backings.
func BenchmarkIndexLoad(b *testing.B) {
	const (
		horizon = 10
		theta   = 1 << 14
		seed    = int64(42)
		rrSets  = 4096
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target:       d.DefaultTarget,
		Horizon:      horizon,
		Seed:         seed,
		SketchTheta:  theta,
		IncludeWalks: true,
		RRSets:       rrSets,
	})
	if err != nil {
		b.Fatal(err)
	}
	v3Path := filepath.Join(b.TempDir(), "index.ovmidx")
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(v3Path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	v3Bytes := int64(buf.Len())
	buf = bytes.Buffer{}

	// Postings compression: the raw CSR index arrays (what BuildIndex and
	// repair hold in memory) versus the delta+varint blocks the file stores.
	var rawPostings, compactPostings int64
	countIndex := func(off, item, pos []int32) {
		raw := postings.CSR{Off: off, Item: item, Pos: pos}
		rawPostings += int64(len(off)+len(item)+len(pos)) * 4
		compactPostings += postings.FromCSR(raw, postings.DefaultBlockSize).Bytes()
	}
	for _, a := range idx.Sketches {
		countIndex(a.Index.Off, a.Index.Walk, a.Index.Pos)
	}
	for _, a := range idx.Walks {
		countIndex(a.Index.Off, a.Index.Walk, a.Index.Pos)
	}
	for _, a := range idx.RRs {
		countIndex(a.Index.Off, a.Index.Item, nil)
	}

	heapLoad := func() *serialize.Index {
		data, err := os.ReadFile(v3Path)
		if err != nil {
			b.Fatal(err)
		}
		loaded, err := serialize.ReadIndex(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		return loaded
	}
	// datasetBytes registers a loaded index once (outside the timed loop)
	// and returns the serving-footprint split.
	datasetBytes := func(loaded *serialize.Index) (mapped, heap int64) {
		svc := service.New(service.Config{})
		if err := svc.AddIndex("sweep", loaded); err != nil {
			b.Fatal(err)
		}
		ds := svc.StatsSnapshot().Datasets[0]
		return ds.MappedBytes, ds.HeapBytes
	}

	b.Run("v3-heap", func(b *testing.B) {
		var loaded *serialize.Index
		for i := 0; i < b.N; i++ {
			loaded = heapLoad()
		}
		b.StopTimer()
		mapped, heap := datasetBytes(loaded)
		b.ReportMetric(float64(v3Bytes), "index_bytes")
		b.ReportMetric(float64(mapped), "mapped_bytes")
		b.ReportMetric(float64(heap), "heap_bytes")
	})
	b.Run("v3-mmap", func(b *testing.B) {
		// Untimed heap reference, best of 2, for the load speedup ratio.
		var heapRef time.Duration
		for r := 0; r < 2; r++ {
			start := time.Now()
			heapLoad()
			if dur := time.Since(start); heapRef == 0 || dur < heapRef {
				heapRef = dur
			}
		}
		var mi *serialize.MappedIndex
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if mi != nil {
				mi.Close()
			}
			var err error
			if mi, err = serialize.OpenMapped(v3Path); err != nil {
				b.Fatal(err)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()
		if !mi.Mapped() {
			b.Fatal("v3 load fell back to the heap; the zero-copy path was not measured")
		}
		mapped, heap := datasetBytes(mi.Index)
		defer mi.Close()
		if mapped == 0 {
			b.Fatal("mapped dataset reports zero mapped bytes")
		}
		b.ReportMetric(float64(v3Bytes), "index_bytes")
		b.ReportMetric(float64(mapped), "mapped_bytes")
		b.ReportMetric(float64(heap), "heap_bytes")
		b.ReportMetric(float64(heapRef.Nanoseconds()), "v3_heap_ns")
		b.ReportMetric(float64(heapRef.Nanoseconds())/(float64(elapsed.Nanoseconds())/float64(b.N)), "load_speedup_x")
		b.ReportMetric(float64(rawPostings)/float64(compactPostings), "postings_compression_x")
	})
}

// BenchmarkUpdateChurn measures what the async update pipeline buys on the
// 12k-node sweep graph: the same 64 small mutation batches pushed through
// the synchronous blocking path (one repair + swap per batch) versus
// accepted into the update queue and drained by the background applier
// (which coalesces disjoint batches into far fewer repairs) — each while
// two uncached single-threaded evaluate workers keep querying the dataset.
// Reported metrics: updates_per_sec_sync / updates_per_sec_async and their
// ratio churn_speedup_x; the accepted-to-visible lag tail from the
// service's own histogram (visible_lag_p50_ns / visible_lag_p95_ns); the
// query tail during the async churn against the quiet baseline
// (churn_warm_p99_ns vs baseline_warm_p99_ns); and identical_ok = 1 iff
// the async drain landed on the same epoch with byte-identical
// select-seeds and evaluate answers as the sync replay.
func BenchmarkUpdateChurn(b *testing.B) {
	const (
		horizon  = 10
		theta    = 4096
		seed     = int64(42)
		rrSets   = 1024
		mBatches = 64
	)
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 12000, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	buildOpts := service.BuildOptions{
		Target:      d.DefaultTarget,
		Horizon:     horizon,
		Seed:        seed,
		SketchTheta: theta,
		RRSets:      rrSets,
	}
	newSvc := func(async bool) *service.Service {
		idx, err := service.BuildIndex(d.Sys, buildOpts)
		if err != nil {
			b.Fatal(err)
		}
		svc := service.New(service.Config{AsyncUpdates: async})
		if err := svc.AddIndex("churn", idx); err != nil {
			b.Fatal(err)
		}
		return svc
	}
	n := int32(d.Sys.N())
	batchFor := func(i int) dynamic.Batch {
		base := int32(i*97) % (n - 600)
		return dynamic.Batch{
			{Kind: dynamic.OpAddEdge, From: base, To: base + 13, W: 1},
			{Kind: dynamic.OpAddEdge, From: base + 500, To: base + 7, W: 0.5},
			{Kind: dynamic.OpSetWeight, From: base + 1, To: base + 2, W: 2},
			{Kind: dynamic.OpSetOpinion, Cand: d.DefaultTarget, Node: base + 3, Value: 0.9},
			{Kind: dynamic.OpSetStubbornness, Cand: d.DefaultTarget, Node: base + 4, Value: 0.5},
		}
	}
	update := func(i int) *service.UpdateRequest {
		return &service.UpdateRequest{Dataset: "churn", Ops: batchFor(i)}
	}

	// runPhase drives two closed-loop query workers (unique seed sets so
	// every request computes, parallelism pinned to 1 so query latency is
	// the worker's own and the repair takes the remaining cores) while
	// apply() runs, and returns apply's duration plus the query p99.
	runPhase := func(svc *service.Service, apply func() time.Duration) (time.Duration, int64) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var hist obs.Histogram
		var qerr atomic.Value
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)*7919))
				for {
					select {
					case <-stop:
						return
					default:
					}
					seeds := make([]int32, 0, 5)
					for len(seeds) < 5 {
						seeds = append(seeds, int32(rng.Intn(int(n))))
					}
					start := time.Now()
					_, serr := svc.Evaluate(&service.EvaluateRequest{
						Dataset: "churn", Score: service.ScoreSpec{Name: "cumulative"},
						Horizon: horizon, Target: d.DefaultTarget, Seeds: seeds,
						Parallelism: 1,
					})
					if serr != nil {
						qerr.Store(serr)
						return
					}
					hist.Observe(time.Since(start))
				}
			}(w)
		}
		dur := apply()
		close(stop)
		wg.Wait()
		if e := qerr.Load(); e != nil {
			b.Fatal(e)
		}
		return dur, hist.Snapshot().Quantile(0.99)
	}

	syncSvc := newSvc(false)
	defer syncSvc.Close()
	syncDur, _ := runPhase(syncSvc, func() time.Duration {
		start := time.Now()
		for i := 0; i < mBatches; i++ {
			if _, serr := syncSvc.ApplyUpdates(update(i)); serr != nil {
				b.Fatal(serr)
			}
		}
		return time.Since(start)
	})

	asyncSvc := newSvc(true)
	defer asyncSvc.Close()
	asyncDur, _ := runPhase(asyncSvc, func() time.Duration {
		start := time.Now()
		for i := 0; i < mBatches; i++ {
			if _, serr := asyncSvc.EnqueueUpdates(update(i)); serr != nil {
				b.Fatal(serr)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if serr := asyncSvc.WaitIdle(ctx, "churn"); serr != nil {
			b.Fatal(serr)
		}
		return time.Since(start)
	})

	lag := asyncSvc.UpdateLagSnapshot()

	// Equivalence: both services must sit at epoch mBatches with
	// byte-identical answers — the coalescer's proof obligation, checked
	// end to end.
	identical := 1.0
	sel := &service.SelectSeedsRequest{
		Dataset: "churn", Method: "RS", Score: service.ScoreSpec{Name: "plurality"},
		K: 10, Horizon: horizon, Target: d.DefaultTarget, Seed: seed, Theta: theta,
	}
	sa, serr := syncSvc.SelectSeeds(sel)
	if serr != nil {
		b.Fatal(serr)
	}
	sb, serr := asyncSvc.SelectSeeds(sel)
	if serr != nil {
		b.Fatal(serr)
	}
	eval := &service.EvaluateRequest{
		Dataset: "churn", Score: service.ScoreSpec{Name: "cumulative"},
		Horizon: horizon, Target: d.DefaultTarget, Seeds: []int32{5, 99, 1234, 7777, 11000},
	}
	ea, serr := syncSvc.Evaluate(eval)
	if serr != nil {
		b.Fatal(serr)
	}
	eb, serr := asyncSvc.Evaluate(eval)
	if serr != nil {
		b.Fatal(serr)
	}
	if sa.Epoch != mBatches || sb.Epoch != mBatches ||
		!reflect.DeepEqual(sa.Seeds, sb.Seeds) || sa.ExactValue != sb.ExactValue ||
		ea.Value != eb.Value {
		identical = 0
		b.Errorf("async drain diverged from sync replay: epochs %d/%d, seeds %v/%v, values %.9f/%.9f eval %.9f/%.9f",
			sa.Epoch, sb.Epoch, sa.Seeds, sb.Seeds, sa.ExactValue, sb.ExactValue, ea.Value, eb.Value)
	}

	// Sustained churn: one batch accepted every 20ms keeps the background
	// applier repairing for the whole window, so the query tail measured
	// here is what reads pay while the pipeline churns — the serving-QPS
	// claim the async design makes.
	_, churnP99 := runPhase(asyncSvc, func() time.Duration {
		start := time.Now()
		for i := mBatches; time.Since(start) < 1200*time.Millisecond; i++ {
			if _, serr := asyncSvc.EnqueueUpdates(update(i)); serr != nil {
				b.Fatal(serr)
			}
			time.Sleep(20 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if serr := asyncSvc.WaitIdle(ctx, "churn"); serr != nil {
			b.Fatal(serr)
		}
		return time.Since(start)
	})

	// Quiet baseline measured LAST, on the same drained service: adjacent
	// in time and memory state to the churn phase, so machine-level
	// transients (GC after the index builds, CPU frequency states) hit
	// both sides of the churn/baseline ratio alike.
	_, baseP99 := runPhase(asyncSvc, func() time.Duration {
		time.Sleep(1200 * time.Millisecond)
		return 0
	})

	b.ReportMetric(float64(mBatches)/syncDur.Seconds(), "updates_per_sec_sync")
	b.ReportMetric(float64(mBatches)/asyncDur.Seconds(), "updates_per_sec_async")
	b.ReportMetric(syncDur.Seconds()/asyncDur.Seconds(), "churn_speedup_x")
	b.ReportMetric(float64(lag.Quantile(0.50)), "visible_lag_p50_ns")
	b.ReportMetric(float64(lag.Quantile(0.95)), "visible_lag_p95_ns")
	b.ReportMetric(float64(churnP99), "churn_warm_p99_ns")
	b.ReportMetric(float64(baseP99), "baseline_warm_p99_ns")
	b.ReportMetric(identical, "identical_ok")
	b.ReportMetric(float64(asyncSvc.StatsSnapshot().CoalescedOps), "coalesced_ops")
}
