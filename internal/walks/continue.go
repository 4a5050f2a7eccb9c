package walks

import (
	"fmt"

	"ovm/internal/core"
)

// GreedyRun reports a greedy selection continued from a prefix.
type GreedyRun struct {
	Seeds []int32   // the prefix followed by the newly chosen seeds, a fresh slice
	Gains []float64 // estimated marginal gain of each new round
	Value float64   // F̂ of the full seed set
	// Rounds is the work of the new rounds and Replay that of re-applying
	// the prefix (its Seed is -1). Both stay zero-valued when cost accounting
	// is off, and their sum is what the run added to the global counters.
	Rounds []RoundCost
	Replay RoundCost
}

// ContinueGreedy runs the greedy selection of Algorithms 4 and 5 for
// (p.Score, p.K) over set, skipping the rounds an earlier run already made.
// The greedy never looks at k: round j+1 is chosen from the state the first
// j seeds left behind, so the answer for k is a prefix of the answer for any
// larger k. prefix must hold the first len(prefix) < p.K seeds chosen by a
// run over the same pristine set, weights, competitor rows and score. They
// are re-applied as truncations without any gain evaluation, the estimator
// is built on the truncated set, and the missing rounds run from there —
// seeds, gains and value bit-identical to an uninterrupted run at any
// parallelism. An empty prefix is the from-scratch selection.
//
// set is mutated by truncation: pass a freshly generated set or a private
// Clone of a pristine artifact. weight holds one entry per owner
// (UniformOwnerWeights for RW, SketchOwnerWeights for RS). comp may carry
// the competitor rows of (p.Target, p.Horizon); nil diffuses them here.
// p.Ctx, when set, stops the run at the next round boundary.
func ContinueGreedy(p *core.Problem, set *Set, weight []float64, comp [][]float64, prefix []int32, parallelism int) (*GreedyRun, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(prefix) >= p.K {
		return nil, fmt.Errorf("walks: prefix of %d seeds leaves no round to run for k=%d", len(prefix), p.K)
	}
	if comp == nil {
		var err error
		if comp, err = core.CompetitorOpinionsCtx(p.Ctx, p.Sys, p.Target, p.Horizon, parallelism); err != nil {
			return nil, err
		}
	}
	set.EnsureIndex(parallelism)
	run := &GreedyRun{Seeds: make([]int32, 0, p.K), Replay: RoundCost{Seed: -1}}
	for _, u := range prefix {
		if u < 0 || int(u) >= set.n || set.IsSeed(u) {
			return nil, fmt.Errorf("walks: prefix seed %d is out of range or repeated", u)
		}
		run.Replay.addTruncate(set, u, set.AddSeed(u, nil))
	}
	est, err := NewEstimator(set, p.Target, p.Sys.Candidate(p.Target).Init, comp, weight, parallelism)
	if err != nil {
		return nil, err
	}
	est.SetContext(p.Ctx)
	gr, err := est.SelectGreedy(p.K-len(prefix), p.Score)
	if err != nil {
		return nil, err
	}
	run.Seeds = append(append(run.Seeds, prefix...), gr.Seeds...)
	run.Gains, run.Value = gr.Gains, gr.Value
	run.Rounds = append(run.Rounds, est.RoundCosts()...)
	return run, nil
}
