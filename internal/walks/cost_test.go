package walks_test

import (
	"fmt"
	"testing"
	"time"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/obs"
	"ovm/internal/rwalk"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// BenchmarkCostAccounting is the overhead guard for the engine cost
// counters: it runs the same indexed greedy selection on the 12k-node sweep
// graph with accounting on and off (interleaved, best-of so scheduler noise
// cancels), reports accounting_overhead_pct and fails if the enabled path
// costs more than 2% over the disabled one. It is a benchmark and not a test
// because `go test -race ./...` would make a 2% timing assertion flaky; CI
// runs it with `go test -run '^$' -bench CostAccounting -benchtime 1x
// ./internal/walks`. That accounting never changes a selected seed or gain is
// TestIncrementalMatchesFullScan's to prove; the same comparison is repeated
// here on the runs being timed.
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
	gr, err := walks.NewGround(d.Sys.Candidate(d.DefaultTarget))
	if err != nil {
		b.Fatal(err)
	}
	comp := core.CompetitorOpinions(d.Sys, d.DefaultTarget, horizon, 0)
	init := d.Sys.Candidate(d.DefaultTarget).Init
	// Both kinds of start, the same number of walks each.
	for _, draw := range []walks.Draw{rwalk.Draw(seed, lambda), sketch.Draw(seed, lambda*d.Sys.N())} {
		b.Run(fmt.Sprintf("theta=%d", draw.Theta), func(b *testing.B) {
			base, err := draw.Generate(nil, gr, horizon, 0)
			if err != nil {
				b.Fatal(err)
			}
			base.EnsureIndex()
			costAccountingOverhead(b, func() *walks.Estimator {
				est, err := walks.NewEstimator(base.Clone(), d.DefaultTarget, init, comp, draw.Weights(base), 0)
				if err != nil {
					b.Fatal(err)
				}
				return est
			}, k)
		})
	}
}

// costAccountingOverhead times k plurality rounds on a fresh estimator with
// accounting on and off and applies the 2% gate.
func costAccountingOverhead(b *testing.B, newEstimator func() *walks.Estimator, k int) {
	score := voting.Plurality{}
	defer obs.SetCostAccounting(true)
	run := func(on bool) (time.Duration, *core.GreedyResult) {
		obs.SetCostAccounting(on)
		est := newEstimator()
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
