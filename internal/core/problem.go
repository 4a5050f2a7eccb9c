package core

import (
	"context"
	"fmt"

	"ovm/internal/opinion"
	"ovm/internal/voting"
)

// Problem is one FJ-Vote instance (Problem 1, §II-C): find K seed nodes for
// candidate Target maximizing Score at timestamp Horizon.
//
// Ctx, when set, bounds the selection: solvers poll it at shard and greedy
// round boundaries and abandon the run with ctx.Err(). Cancellation never
// mutates shared state — every solver builds its estimator locally and
// discards it wholesale on error, so a cancelled run followed by a retry of
// the same Problem produces bit-identical results.
type Problem struct {
	Sys     *opinion.System
	Target  int
	Horizon int
	K       int
	Score   voting.Score
	Ctx     context.Context
}

// Context returns p.Ctx, or context.Background() when unset, so solvers can
// thread it unconditionally.
func (p *Problem) Context() context.Context {
	if p.Ctx != nil {
		return p.Ctx
	}
	return context.Background()
}

// ValidateTargetHorizon is the shared bounds check for the two parameters
// every entry point accepts: the target candidate index must lie in [0, r)
// and the time horizon must be non-negative. The HTTP service maps a
// violation to a typed bad_request; commands route it through
// cliutil.CheckArg for the usage-and-exit-2 convention — so both surfaces
// reject exactly the same inputs.
func ValidateTargetHorizon(target, horizon, r int) error {
	if target < 0 || target >= r {
		return fmt.Errorf("target %d out of range [0,%d)", target, r)
	}
	if horizon < 0 {
		return fmt.Errorf("horizon must be >= 0, got %d", horizon)
	}
	return nil
}

// Validate checks the instance is well-formed.
func (p *Problem) Validate() error {
	if p.Sys == nil {
		return fmt.Errorf("core: nil system")
	}
	if err := ValidateTargetHorizon(p.Target, p.Horizon, p.Sys.R()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if p.K < 1 || p.K > p.Sys.N() {
		return fmt.Errorf("core: need 1 <= k <= n, got k=%d n=%d", p.K, p.Sys.N())
	}
	if p.Score == nil {
		return fmt.Errorf("core: nil score")
	}
	if v, ok := p.Score.(interface{ Validate(r int) error }); ok {
		if err := v.Validate(p.Sys.R()); err != nil {
			return err
		}
	}
	return nil
}

// Instance is a (system, target, horizon) instance with the competitors'
// horizon opinions. §II-C fixes the competitors' seeds, so those rows are
// constants of the instance: once diffused, every exact evaluation pays one
// diffusion, the target's. Comp[x] is candidate x's seedless row (the target
// entry is ignored); the rows are only ever read, so one Comp may back any
// number of concurrent evaluations. Traj, when set, is the target's seedless
// opinion.Trajectory to Horizon, shared read-only the same way: an evaluation
// then recomputes only the nodes its seeds can reach (opinion.DiffuseFrom)
// and returns the bits of the dense run it replaces. Parallelism is the engine
// worker knob of the target's diffusion (0 = GOMAXPROCS, 1 = serial), never
// visible in a result.
type Instance struct {
	Sys             *opinion.System
	Target, Horizon int
	Comp            [][]float64
	Traj            [][]float64
	Parallelism     int
}

// NewInstance diffuses the competitor rows from scratch. It builds no
// trajectory: its evaluations are the dense reference.
func NewInstance(ctx context.Context, sys *opinion.System, target, horizon, parallelism int) (*Instance, error) {
	if err := ValidateTargetHorizon(target, horizon, sys.R()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	comp, err := CompetitorOpinionsCtx(ctx, sys, target, horizon, parallelism)
	if err != nil {
		return nil, err
	}
	return &Instance{Sys: sys, Target: target, Horizon: horizon, Comp: comp, Parallelism: parallelism}, nil
}

// matrix returns B^(Horizon)[seeds]: a private slice of row pointers, the
// competitor entries aliasing Comp and the target entry freshly diffused
// with the seeds applied. ctx, when non-nil, stops that diffusion.
func (in *Instance) matrix(ctx context.Context, seeds []int32) ([][]float64, error) {
	var row []float64
	var err error
	if c := in.Sys.Candidate(in.Target); in.Traj != nil {
		row, err = opinion.DiffuseFrom(ctx, c, in.Traj, seeds, in.Parallelism)
	} else {
		row, err = opinion.Diffuse(ctx, c, in.Horizon, seeds, in.Parallelism)
	}
	if err != nil {
		return nil, err
	}
	B := make([][]float64, len(in.Comp))
	copy(B, in.Comp)
	B[in.Target] = row
	return B, nil
}

// Evaluate computes F(B^(Horizon)[seeds], target) for any score — the
// ground-truth evaluation used to compare methods.
func (in *Instance) Evaluate(ctx context.Context, score voting.Score, seeds []int32) (float64, error) {
	B, err := in.matrix(ctx, seeds)
	if err != nil {
		return 0, err
	}
	return score.Eval(B, in.Target), nil
}

// EvaluateExact is Instance.Evaluate from scratch, competitor rows included.
func EvaluateExact(sys *opinion.System, target, horizon int, score voting.Score, seeds []int32, parallelism int) (float64, error) {
	return EvaluateExactCtx(nil, sys, target, horizon, score, seeds, parallelism)
}

// EvaluateExactCtx is EvaluateExact with cooperative cancellation: every
// diffusion checks ctx at each step and returns ctx.Err() once it is done.
func EvaluateExactCtx(ctx context.Context, sys *opinion.System, target, horizon int, score voting.Score, seeds []int32, parallelism int) (float64, error) {
	in, err := NewInstance(ctx, sys, target, horizon, parallelism)
	if err != nil {
		return 0, err
	}
	return in.Evaluate(ctx, score, seeds)
}

// CompetitorOpinions computes the horizon-t opinion rows of every candidate
// except the target (seedless); the target entry stays nil. Competitor rows
// never change with the target's seeds, so this is computed once per
// problem. Rows are diffused one after another, each node-sharded over the
// engine worker pool (parallelism: 0 = GOMAXPROCS, 1 = serial).
func CompetitorOpinions(sys *opinion.System, target, horizon, parallelism int) [][]float64 {
	B, _ := CompetitorOpinionsCtx(nil, sys, target, horizon, parallelism)
	return B
}

// CompetitorOpinionsCtx is CompetitorOpinions with cooperative cancellation
// between diffusion steps. On cancellation the partially-filled matrix is
// discarded and ctx.Err() returned — callers must never memoize a partial
// result.
func CompetitorOpinionsCtx(ctx context.Context, sys *opinion.System, target, horizon, parallelism int) ([][]float64, error) {
	B := make([][]float64, sys.R())
	for q := range B {
		if q == target {
			continue
		}
		var err error
		if B[q], err = opinion.Diffuse(ctx, sys.Candidate(q), horizon, nil, parallelism); err != nil {
			return nil, err
		}
	}
	return B, nil
}
