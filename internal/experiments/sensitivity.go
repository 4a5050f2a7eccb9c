package experiments

import (
	"fmt"
	"io"
	"time"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/im"
	"ovm/internal/methods"
	"ovm/internal/rwalk"
	"ovm/internal/sampling"
	"ovm/internal/sketch"
	"ovm/internal/voting"
)

// Fig11 reproduces the expected-influence-spread comparison (Fig 11): the
// EIS under the IC and LT models of the seeds chosen by RW for the three
// voting scores, versus the seeds chosen by IMM natively. The paper's
// shape: RW's cumulative seeds reach ≥ 80% of IMM's spread.
func Fig11(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Fig 11: expected influence spread (twitter-mask-like)")
	d, err := datasets.TwitterMaskLike(datasets.Options{N: p.size(3000, 250), Seed: p.Seed})
	if err != nil {
		return err
	}
	g := d.Sys.Candidate(d.DefaultTarget).G
	k := p.size(50, 5)
	horizon := horizonFor(p)
	rounds := 200
	if p.Quick {
		rounds = 30
	}
	type entry struct {
		label string
		seeds []int32
	}
	var entries []entry
	for _, score := range []voting.Score{voting.Cumulative{}, voting.Plurality{}, voting.Copeland{}} {
		prob := defaultProblem(d, horizon, k, score)
		res, err := rwalk.Select(prob, rwalk.Config{Seed: p.Seed, MaxWalksPerNode: 300, Parallelism: p.Parallelism})
		if err != nil {
			return err
		}
		entries = append(entries, entry{"RW/" + score.Name(), res.Seeds})
	}
	for _, model := range []im.Model{im.IC, im.LT} {
		res, err := im.IMM(g, model, k, im.IMMConfig{Seed: p.Seed, MaxSets: 1 << 18, Parallelism: p.Parallelism})
		if err != nil {
			return err
		}
		entries = append(entries, entry{"IMM/" + model.String(), res.Seeds})
	}
	fmt.Fprintf(w, "%-16s %14s %14s\n", "seeds from", "EIS under IC", "EIS under LT")
	r := sampling.NewRand(p.Seed, 401)
	for _, e := range entries {
		ic := im.ExpectedSpread(g, im.IC, e.seeds, rounds, r)
		lt := im.ExpectedSpread(g, im.LT, e.seeds, rounds, r)
		fmt.Fprintf(w, "%-16s %14.1f %14.1f\n", e.label, ic, lt)
	}
	return nil
}

// Fig12 reproduces the horizon study (Fig 12): the cumulative score of the
// chosen seeds and the seed-finding time as functions of the time horizon
// t, for DM, RW, and RS. The paper's shape: scores flatten near t = 20;
// DM's time grows linearly in t while RW/RS grow sublinearly (walks stop
// early at stubborn nodes).
func Fig12(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Fig 12: cumulative score and time vs horizon t (yelp-like)")
	d, err := datasets.YelpLike(datasets.Options{N: p.size(2000, 200), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(50, 4)
	ts := pickInts(p, []int{0, 5, 10, 15, 20, 25, 30}, []int{0, 2, 5})
	fmt.Fprintf(w, "%6s", "t")
	for _, m := range methods.Proposed {
		fmt.Fprintf(w, " %12s %10s", m+" score", m+" time")
	}
	fmt.Fprintln(w)
	for _, t := range ts {
		fmt.Fprintf(w, "%6d", t)
		for _, m := range methods.Proposed {
			prob := defaultProblem(d, t, k, voting.Cumulative{})
			res, err := runMethod(m, prob, p.Seed, p.Parallelism)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.2f %10.3f", res.Exact, res.Seconds)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// thetaSweep is the engine behind Figs 13/14: the exact score of RS seeds
// as θ grows, for several (k, t) combinations, showing convergence at a
// dataset-specific θ well below n.
func thetaSweep(w io.Writer, p Params, dataset string, score voting.Score) error {
	p = p.withDefaults()
	d, err := datasets.ByName(dataset, datasets.Options{N: p.size(3000, 250), Seed: p.Seed})
	if err != nil {
		return err
	}
	thetas := pickInts(p, []int{1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17}, []int{256, 1024})
	type combo struct{ k, t int }
	combos := []combo{
		{p.size(50, 4), horizonFor(p)},
		{p.size(100, 6), horizonFor(p)},
		{p.size(50, 4), horizonFor(p) / 2},
	}
	if p.Quick {
		combos = combos[:1]
	}
	fmt.Fprintf(w, "%s, score=%s (n=%d)\n", dataset, score.Name(), d.Sys.N())
	fmt.Fprintf(w, "%10s", "theta")
	for _, c := range combos {
		fmt.Fprintf(w, " %16s", fmt.Sprintf("k=%d,t=%d", c.k, c.t))
	}
	fmt.Fprintln(w)
	for _, th := range thetas {
		fmt.Fprintf(w, "%10d", th)
		for _, c := range combos {
			prob := defaultProblem(d, c.t, c.k, score)
			res, err := sketch.SelectWithTheta(prob, th, p.Seed, p.Parallelism)
			if err != nil {
				return err
			}
			exact, err := core.EvaluateExact(d.Sys, d.DefaultTarget, c.t, score, res.Seeds, p.Parallelism)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %16.2f", exact)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig13 reproduces the plurality-vs-θ study (Fig 13).
func Fig13(w io.Writer, p Params) error {
	header(w, "Fig 13: plurality score vs theta (twitter-mask-like)")
	return thetaSweep(w, p, "twitter-mask-like", voting.Plurality{})
}

// Fig14 reproduces the Copeland-vs-θ study (Fig 14).
func Fig14(w io.Writer, p Params) error {
	header(w, "Fig 14: Copeland score vs theta (yelp-like)")
	return thetaSweep(w, p, "yelp-like", voting.Copeland{})
}

// Fig15 reproduces the ε sensitivity study (Fig 15): RS's cumulative score
// and running time as ε grows. The paper's shape: scores drop sharply past
// ε = 0.1 while time shrinks.
func Fig15(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Fig 15: cumulative score vs epsilon (RS, twitter-election-like)")
	d, err := datasets.TwitterElectionLike(datasets.Options{N: p.size(3000, 250), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(50, 4)
	horizon := horizonFor(p)
	eps := []float64{0.05, 0.1, 0.2, 0.3}
	if p.Quick {
		eps = []float64{0.1, 0.3}
	}
	fmt.Fprintf(w, "%8s %12s %12s %12s\n", "epsilon", "score", "time(s)", "theta")
	for _, e := range eps {
		prob := defaultProblem(d, horizon, k, voting.Cumulative{})
		start := time.Now()
		res, err := sketch.Select(prob, sketch.Config{Epsilon: e, Seed: p.Seed, MaxTheta: 1 << 18, Parallelism: p.Parallelism})
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		exact, err := core.EvaluateExact(d.Sys, d.DefaultTarget, horizon, voting.Cumulative{}, res.Seeds, p.Parallelism)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8.2f %12.2f %12.3f %12d\n", e, exact, elapsed, res.Theta)
	}
	return nil
}

// Fig16 reproduces the ρ sensitivity study (Fig 16): RW's plurality score
// and running time as ρ grows. The paper's shape: scores saturate near
// ρ = 0.9 while time keeps climbing.
func Fig16(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Fig 16: plurality score vs rho (RW, twitter-distancing-like)")
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: p.size(3000, 250), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(50, 4)
	horizon := horizonFor(p)
	rhos := []float64{0.75, 0.8, 0.85, 0.9, 0.95}
	if p.Quick {
		rhos = []float64{0.75, 0.9}
	}
	fmt.Fprintf(w, "%8s %12s %12s %14s\n", "rho", "score", "time(s)", "total walks")
	for _, rho := range rhos {
		prob := defaultProblem(d, horizon, k, voting.Plurality{})
		start := time.Now()
		res, err := rwalk.Select(prob, rwalk.Config{Rho: rho, Seed: p.Seed, MaxWalksPerNode: 600, Parallelism: p.Parallelism})
		if err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		exact, err := core.EvaluateExact(d.Sys, d.DefaultTarget, horizon, voting.Plurality{}, res.Seeds, p.Parallelism)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8.2f %12.2f %12.3f %14d\n", rho, exact, elapsed, res.TotalWalks)
	}
	return nil
}
