package core

import (
	"context"

	"ovm/internal/engine"
	"ovm/internal/opinion"
	"ovm/internal/voting"
)

// DMObjective evaluates a voting score exactly by direct matrix-vector
// iteration (the DM method of §III-C): each evaluation re-diffuses the
// target's opinions with the seed set applied, at O(Horizon·m) cost, against
// the Instance's shared competitor rows. Gains shards the candidates over
// the engine pool, one diffusion per candidate on the executing worker's
// private diffuser. Each diffusion is an independent deterministic
// computation, so gains are bit-identical for every parallelism.
type DMObjective struct {
	in          *Instance
	score       voting.Score
	parallelism int
	workers     []dmWorker
	picks       []int32
	cur         float64
	evals       int
}

// dmWorker is one worker's evaluation state: its diffuser, its row headers
// (the competitor entries aliasing Instance.Comp, the target entry swapped
// per evaluation) and its seed-set scratch.
type dmWorker struct {
	diff  *opinion.Diffuser
	b     [][]float64
	seeds []int32
}

func (w *dmWorker) value(o *DMObjective, seeds []int32) float64 {
	w.b[o.in.Target] = w.diff.Run(o.in.Horizon, seeds)
	return o.score.Eval(w.b, o.in.Target)
}

// NewDMObjective prepares engine.Workers(parallelism) evaluators over in's
// competitor rows (0 = GOMAXPROCS, 1 = serial) and evaluates the empty seed
// set, which counts as the first evaluation. score must be valid for in.
func NewDMObjective(in *Instance, score voting.Score, parallelism int) *DMObjective {
	o := &DMObjective{
		in:          in,
		score:       score,
		parallelism: parallelism,
		workers:     make([]dmWorker, engine.Workers(parallelism)),
	}
	for i := range o.workers {
		b := make([][]float64, len(in.Comp))
		copy(b, in.Comp) // competitor rows shared read-only across workers
		o.workers[i] = dmWorker{diff: opinion.NewDiffuser(in.Sys.Candidate(in.Target)), b: b}
	}
	o.cur = o.workers[0].value(o, nil)
	o.evals = 1
	return o
}

// N implements Objective.
func (o *DMObjective) N() int { return o.in.Sys.N() }

// Gains implements Objective, one candidate per engine chunk.
func (o *DMObjective) Gains(ctx context.Context, cands []int32, out []float64) error {
	o.evals += len(cands)
	return sweep(ctx, o.parallelism, len(cands), 1, len(cands), func(worker, lo, hi int) {
		w := &o.workers[worker]
		for i := lo; i < hi; i++ {
			w.seeds = append(append(w.seeds[:0], o.picks...), cands[i])
			out[i] = w.value(o, w.seeds) - o.cur
		}
	})
}

// Add implements Objective.
func (o *DMObjective) Add(v int32, gain float64) {
	o.picks = append(o.picks, v)
	o.cur += gain
}

// Value implements Objective.
func (o *DMObjective) Value() float64 { return o.cur }

// Evaluations implements Objective: the exact evaluations performed (used
// by the efficiency experiments).
func (o *DMObjective) Evaluations() int { return o.evals }

// restrictedCumulative is the voting score behind the sandwich lower bound
// LB(S) = ω[p] · Σ_{v ∈ V_q^(t)} b_qv^(t)[S] (Definition 3): a cumulative
// score restricted to the favorable users set and scaled by ω[p].
type restrictedCumulative struct {
	mask  []bool
	scale float64
}

// Name implements voting.Score.
func (s restrictedCumulative) Name() string { return "restricted-cumulative" }

// Eval implements voting.Score.
func (s restrictedCumulative) Eval(B [][]float64, q int) float64 {
	sum := 0.0
	for v, in := range s.mask {
		if in {
			sum += B[q][v]
		}
	}
	return s.scale * sum
}

var _ voting.Score = restrictedCumulative{}
