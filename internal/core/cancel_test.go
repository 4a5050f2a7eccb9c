package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/obs"
	"ovm/internal/voting"
)

// countdownCtx cancels itself after a fixed number of Err() polls, so a
// cancellation lands at a deterministic point of the computation instead of
// depending on wall-clock timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	done      chan struct{}
	once      sync.Once
}

func newCountdown(polls int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.remaining.Store(polls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) <= 0 {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

// diffusions reads ovm_opinion_diffusions_total.
func diffusions(t *testing.T) int64 {
	t.Helper()
	if !obs.CostEnabled() {
		t.Fatal("cost accounting is off")
	}
	return obs.CaptureCosts().Delta(nil)["ovm_opinion_diffusions_total"]
}

// TestDMCancelMidSweep: DM selection polls its context inside the candidate
// sweep, so a cancellation there returns the context's error before the
// sweep's n diffusions are paid. The countdown (n/2 polls) runs out after the
// setup diffusions (competitor rows, seedless matrix, the UB's coverage
// greedy, the empty-set value) and before the first DM sweep ends.
func TestDMCancelMidSweep(t *testing.T) {
	const n = 400
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := d.Sys.R()
	cases := []struct {
		score voting.Score
		setup int // diffusions every run pays before its first sweep
	}{
		{voting.Cumulative{}, r},
		{voting.Plurality{}, r + 1},
		{voting.Copeland{}, r + 1},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 0} {
			t.Run(fmt.Sprintf("%s/P%d", tc.score.Name(), par), func(t *testing.T) {
				p := &Problem{Sys: d.Sys, Target: d.DefaultTarget, Horizon: 10, K: 3, Score: tc.score, Ctx: newCountdown(n / 2)}
				before := diffusions(t)
				_, _, err := SelectSeedsDM(p, par)
				ran := diffusions(t) - before
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if ran <= int64(tc.setup) || ran >= n {
					t.Errorf("%d diffusions ran, want a cancellation inside the first sweep: more than %d, fewer than %d", ran, tc.setup, n)
				}
			})
		}
	}
}

// TestDMDiffusionAccounting: every objective of one DM selection reads the
// one Instance's competitor rows, so a selection diffuses them r−1 times in
// all and pays one diffusion per evaluation beyond that. A sandwich adds the
// seedless matrix behind its bounds and one exact evaluation per candidate
// solution.
func TestDMDiffusionAccounting(t *testing.T) {
	d, err := datasets.TwitterElectionLike(datasets.Options{N: 300, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := int64(d.Sys.R())
	for _, par := range []int{1, 0} {
		problem := func(score voting.Score) *Problem {
			return &Problem{Sys: d.Sys, Target: d.DefaultTarget, Horizon: 5, K: 4, Score: score}
		}
		t.Run(fmt.Sprintf("positional/P%d", par), func(t *testing.T) {
			before := diffusions(t)
			res, err := SandwichPositional(problem(voting.Plurality{}), par)
			if err != nil {
				t.Fatal(err)
			}
			want := (r - 1) + 1 + int64(res.SL.Evaluations+res.SF.Evaluations) + 3
			if got := diffusions(t) - before; got != want {
				t.Errorf("diffusions = %d, want %d", got, want)
			}
		})
		t.Run(fmt.Sprintf("copeland/P%d", par), func(t *testing.T) {
			before := diffusions(t)
			res, err := SandwichCopeland(problem(voting.Copeland{}), par)
			if err != nil {
				t.Fatal(err)
			}
			want := (r - 1) + 1 + int64(res.SF.Evaluations) + 2
			if got := diffusions(t) - before; got != want {
				t.Errorf("diffusions = %d, want %d", got, want)
			}
		})
		t.Run(fmt.Sprintf("cumulative/P%d", par), func(t *testing.T) {
			p := problem(voting.Cumulative{})
			lazy, err := GreedyCELF(nil, dmObjective(t, p, par), p.K)
			if err != nil {
				t.Fatal(err)
			}
			before := diffusions(t)
			if _, _, err := SelectSeedsDM(p, par); err != nil {
				t.Fatal(err)
			}
			if got, want := diffusions(t)-before, (r-1)+int64(lazy.Evaluations); got != want {
				t.Errorf("diffusions = %d, want %d", got, want)
			}
		})
	}
}
