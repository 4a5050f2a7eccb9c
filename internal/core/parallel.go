package core

import (
	"ovm/internal/engine"
	"ovm/internal/opinion"
)

// BatchObjective is an Objective that can evaluate many candidate
// extensions of a common base seed set at once. The greedy drivers use it
// to fan the per-round candidate sweep over the engine worker pool.
// Implementations must guarantee that out[i] equals what Value(base ∪
// {cands[i]}) would return, independently of scheduling.
type BatchObjective interface {
	Objective
	// ValueBatch writes Value(append(base, cands[i])) into out[i].
	ValueBatch(base []int32, cands []int32, out []float64)
}

// ParallelDMObjective is the parallel counterpart of DMObjective: one FJ
// diffuser per worker, sharing the (read-only) precomputed competitor
// opinion rows, so greedy gain evaluation over candidate nodes — the DM
// method's entire cost — runs on all cores instead of one. Each diffusion
// is an independent deterministic computation, so scores are bit-identical
// for every Parallelism value.
type ParallelDMObjective struct {
	prob        *Problem
	parallelism int
	objs        []*DMObjective // one per worker; objs[0] serves serial calls
	scratch     [][]int32      // per-worker seed-set scratch
}

// NewParallelDMObjective validates the problem, precomputes competitor
// opinions once, and prepares Workers(parallelism) per-worker evaluators
// (0 = GOMAXPROCS, 1 = serial).
func NewParallelDMObjective(p *Problem, parallelism int) (*ParallelDMObjective, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	comp := CompetitorOpinions(p.Sys, p.Target, p.Horizon, parallelism)
	w := engine.Workers(parallelism)
	o := &ParallelDMObjective{
		prob:        p,
		parallelism: parallelism,
		objs:        make([]*DMObjective, w),
		scratch:     make([][]int32, w),
	}
	for i := range o.objs {
		b := make([][]float64, len(comp))
		copy(b, comp) // competitor rows shared read-only across workers
		o.objs[i] = &DMObjective{
			prob: p,
			diff: opinion.NewDiffuser(p.Sys.Candidate(p.Target)),
			b:    b,
		}
	}
	return o, nil
}

// N implements Objective.
func (o *ParallelDMObjective) N() int { return o.prob.Sys.N() }

// Value implements Objective (serial evaluation on worker 0's diffuser).
func (o *ParallelDMObjective) Value(seeds []int32) float64 { return o.objs[0].Value(seeds) }

// ValueBatch implements BatchObjective: candidate evaluations are sharded
// over the worker pool, one diffusion per candidate on the executing
// worker's private diffuser.
func (o *ParallelDMObjective) ValueBatch(base []int32, cands []int32, out []float64) {
	_ = engine.ForEachChunk(o.parallelism, len(cands), 1, len(cands), func(worker, _, lo, hi int) error {
		obj := o.objs[worker]
		for i := lo; i < hi; i++ {
			s := append(o.scratch[worker][:0], base...)
			s = append(s, cands[i])
			out[i] = obj.Value(s)
			o.scratch[worker] = s
		}
		return nil
	})
}

// Evaluations returns the total number of exact evaluations across all
// workers (used by the efficiency experiments).
func (o *ParallelDMObjective) Evaluations() int {
	total := 0
	for _, obj := range o.objs {
		total += obj.Evaluations()
	}
	return total
}

var _ BatchObjective = (*ParallelDMObjective)(nil)
