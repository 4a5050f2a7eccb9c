package core

import (
	"context"
	"errors"
	"fmt"

	"ovm/internal/opinion"
	"ovm/internal/voting"
)

// ErrCannotWin is returned by MinSeedsToWin when even seeding every node
// does not make the target the strict winner.
var ErrCannotWin = errors.New("core: target cannot win even with all nodes seeded")

// SeedSelector produces a seed set of the given size for a fixed
// (system, target, horizon, score) instance. Implementations include the
// DM, RW, and RS selectors.
type SeedSelector func(k int) ([]int32, error)

// Wins reports whether the target's score with the given seeds strictly
// exceeds every competitor's score on the same opinion matrix (Problem 2's
// winning predicate, Equation 9).
func (in *Instance) Wins(ctx context.Context, score voting.Score, seeds []int32) (bool, error) {
	B, err := in.matrix(ctx, seeds)
	if err != nil {
		return false, err
	}
	fq := score.Eval(B, in.Target)
	for x := range B {
		if x != in.Target && score.Eval(B, x) >= fq {
			return false, nil
		}
	}
	return true, nil
}

// Wins is Instance.Wins from scratch, at the default parallelism.
func Wins(sys *opinion.System, target, horizon int, score voting.Score, seeds []int32) (bool, error) {
	in, err := NewInstance(nil, sys, target, horizon, 0)
	if err != nil {
		return false, err
	}
	return in.Wins(nil, score, seeds)
}

// MinSeedsToWin is Algorithm 2 (FJ-Vote-Win, Problem 2) from scratch; see
// Instance.MinSeedsToWin.
func MinSeedsToWin(sys *opinion.System, target, horizon int, score voting.Score, sel SeedSelector) ([]int32, error) {
	return MinSeedsToWinCtx(nil, sys, target, horizon, score, sel)
}

// MinSeedsToWinCtx is MinSeedsToWin with cooperative cancellation.
func MinSeedsToWinCtx(ctx context.Context, sys *opinion.System, target, horizon int, score voting.Score, sel SeedSelector) ([]int32, error) {
	in, err := NewInstance(ctx, sys, target, horizon, 0)
	if err != nil {
		return nil, err
	}
	return in.MinSeedsToWin(ctx, score, sel)
}

// MinSeedsToWin is Algorithm 2 (FJ-Vote-Win, Problem 2): search for the
// minimum seed-set size k* such that the target wins under the given
// score, re-running the selector at each probe. Returns the winning seed
// set (empty if the target already wins with no seeds). ctx, when non-nil,
// is checked between probes and inside each probe's diffusion (each probe
// additionally honors any context the selector's Problem carries).
//
// Implementation note: Algorithm 2 binary-searches [0, n] directly; since
// k* is usually tiny relative to n and each probe re-runs the greedy
// selector at cost growing with k, we first establish a winning upper
// bound by doubling (k = 1, 2, 4, …) and then binary-search the bracket —
// the same predicate, the same k*, far cheaper probes.
func (in *Instance) MinSeedsToWin(ctx context.Context, score voting.Score, sel SeedSelector) ([]int32, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if ok, err := in.Wins(ctx, score, nil); err != nil {
		return nil, err
	} else if ok {
		return []int32{}, nil
	}
	n := in.Sys.N()
	// Feasibility at k = n: every selector returns all nodes there, so the
	// probe is selector-independent.
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	if ok, err := in.Wins(ctx, score, all); err != nil {
		return nil, err
	} else if !ok {
		return nil, ErrCannotWin
	}
	probe := func(k int) ([]int32, bool, error) {
		if err := ctxErr(ctx); err != nil {
			return nil, false, err
		}
		if k >= n {
			return all, true, nil
		}
		s, err := sel(k)
		if err != nil {
			return nil, false, fmt.Errorf("core: selector failed at k=%d: %w", k, err)
		}
		ok, err := in.Wins(ctx, score, s)
		if err != nil {
			return nil, false, err
		}
		return s, ok, nil
	}
	// Doubling phase: find a winning hi.
	lo, hi := 0, 1
	var best []int32
	for {
		s, ok, err := probe(hi)
		if err != nil {
			return nil, err
		}
		if ok {
			best = s
			break
		}
		lo = hi
		if hi >= n {
			return nil, ErrCannotWin
		}
		hi *= 2
		if hi > n {
			hi = n
		}
	}
	// Binary search (lo loses, hi wins).
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		s, ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			hi = mid
			best = s
		} else {
			lo = mid
		}
	}
	return best, nil
}
