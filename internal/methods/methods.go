// Package methods is the one place a seed-selection method name is
// dispatched. The library façade, the query service and the experiment
// harness all turn a name into seeds here; they differ only in the Options
// they pass.
package methods

import (
	"fmt"
	"slices"
	"strings"

	"ovm/internal/baselines"
	"ovm/internal/core"
	"ovm/internal/rwalk"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// Names lists every selectable method in the paper's order: the three
// proposed methods, then the six baselines of §VIII-A.
var Names = []string{"DM", "RW", "RS", "IC", "LT", "GED-T", "PR", "RWR", "DC"}

// Proposed lists the paper's own methods, the ones FJ-Vote-Win (Problem 2)
// searches with.
var Proposed = Names[:3]

// Options tunes a selection; the zero value uses the paper's default
// parameters (ρ=0.9, δ=0.1, ε=0.1, l=1) and full parallelism.
type Options struct {
	RW       rwalk.Config
	RS       sketch.Config
	Baseline baselines.Config
	// Seed drives randomness for RW/RS/baselines when their configs leave
	// it unset.
	Seed int64
	// Parallelism caps the engine worker pool used by every method's hot
	// path (DM gain evaluation, walk/sketch/RR-set generation, greedy
	// scans): 0 means GOMAXPROCS, 1 disables concurrency, any other value
	// pins the worker count. It seeds the per-method configs when their
	// own Parallelism fields are 0.
	//
	// Parallelism is a pure execution knob: shard geometry, random
	// substreams, and reduction order are fixed independently of the worker
	// count, so a selection returns bit-identical seeds for every setting.
	Parallelism int
}

// resolved fills every per-method seed and worker count left at zero from
// o's own.
func (o Options) resolved() Options {
	fill := func(seed *int64, parallelism *int) {
		if *seed == 0 {
			*seed = o.Seed
		}
		if *parallelism == 0 {
			*parallelism = o.Parallelism
		}
	}
	fill(&o.RW.Seed, &o.RW.Parallelism)
	fill(&o.RS.Seed, &o.RS.Parallelism)
	fill(&o.Baseline.IMM.Seed, &o.Baseline.Parallelism)
	return o
}

// method is what a name stands for. Both functions get resolved Options.
type method struct {
	// run selects p.K seeds; rounds is the greedy's per-round work where the
	// method records it (RW, RS with cost accounting on).
	run func(p *core.Problem, o Options) (seeds []int32, rounds []walks.RoundCost, err error)
	// draw reports the walk set run would draw when the score and o alone
	// determine it. Nil for a method that draws none.
	draw func(score voting.Score, o Options) (walks.Draw, bool, error)
}

func lookup(name string) (method, error) {
	switch name {
	case "DM":
		return method{run: func(p *core.Problem, o Options) ([]int32, []walks.RoundCost, error) {
			seeds, _, err := core.SelectSeedsDM(p, o.Parallelism)
			return seeds, nil, err
		}}, nil
	case "RW":
		return method{
			run: func(p *core.Problem, o Options) ([]int32, []walks.RoundCost, error) {
				res, err := rwalk.Select(p, o.RW)
				if err != nil {
					return nil, nil, err
				}
				return res.Seeds, res.Rounds, nil
			},
			// Theorem 10's λ is the same at every node; the γ* plans of
			// Theorems 11/12 depend on the graph.
			draw: func(score voting.Score, o Options) (walks.Draw, bool, error) {
				if _, cumulative := score.(voting.Cumulative); !cumulative {
					return walks.Draw{}, false, nil
				}
				lambda, err := rwalk.CumulativeLambda(o.RW)
				return rwalk.Draw(o.RW.Seed, lambda), err == nil, err
			},
		}, nil
	case "RS":
		return method{
			run: func(p *core.Problem, o Options) ([]int32, []walks.RoundCost, error) {
				res, err := sketch.Select(p, o.RS)
				if err != nil {
					return nil, nil, err
				}
				return res.Seeds, res.Rounds, nil
			},
			// Without a pinned θ the count comes from a search over the graph.
			draw: func(_ voting.Score, o Options) (walks.Draw, bool, error) {
				return sketch.Draw(o.RS.Seed, o.RS.FixedTheta), o.RS.FixedTheta > 0, nil
			},
		}, nil
	case "IC", "LT", "GED-T", "PR", "RWR", "DC":
		return method{run: func(p *core.Problem, o Options) ([]int32, []walks.RoundCost, error) {
			seeds, err := baselines.Select(baselines.Method(name), p, o.Baseline)
			return seeds, nil, err
		}}, nil
	}
	return method{}, fmt.Errorf("methods: unknown method %q (want %s)", name, strings.Join(Names, ", "))
}

// Select runs the named method on p and returns its p.K seeds, with the
// greedy's per-round work where the method records it.
func Select(name string, p *core.Problem, o Options) ([]int32, []walks.RoundCost, error) {
	m, err := lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return m.run(p, o.resolved())
}

// Selector adapts a proposed method to the core.SeedSelector the
// FJ-Vote-Win search probes: p with K replaced by the probe's k.
func Selector(name string, p core.Problem, o Options) (core.SeedSelector, error) {
	if !slices.Contains(Proposed, name) {
		return nil, fmt.Errorf("methods: min-seeds-to-win supports %s; got %q", strings.Join(Proposed, ", "), name)
	}
	return func(k int) ([]int32, error) {
		q := p
		q.K = k
		seeds, _, err := Select(name, &q, o)
		return seeds, err
	}, nil
}

// FixedDraw reports the walk set Select(name, p, o) would draw when p.Score
// and o alone determine it: RS at a pinned θ, RW for the cumulative score.
// The greedy over a persisted set with that Draw, target and horizon is then
// the method's answer, bit for bit, which is what lets an index serve it.
func FixedDraw(name string, score voting.Score, o Options) (walks.Draw, bool, error) {
	m, err := lookup(name)
	if err != nil || m.draw == nil {
		return walks.Draw{}, false, err
	}
	return m.draw(score, o.resolved())
}
