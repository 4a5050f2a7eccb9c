package experiments

import (
	"fmt"
	"io"

	"ovm/internal/datasets"
	"ovm/internal/methods"
	"ovm/internal/opinion"
	"ovm/internal/sketch"
	"ovm/internal/voting"
)

// scoreVsK is the engine behind Figs 6/7/8: for each dataset, sweep the
// seed budget k and report every method's exact score plus its selection
// time at the largest k. The paper's shape: DM/RW/RS on top (DM ≡ GED-T
// for cumulative only), baselines below, gap widest for rank-based scores.
func scoreVsK(w io.Writer, p Params, score voting.Score, datasetNames []string, defaultN int) error {
	p = p.withDefaults()
	ks := pickInts(p, []int{10, 25, 50, 100}, []int{2, 4})
	horizon := horizonFor(p)
	for _, name := range datasetNames {
		d, err := datasets.ByName(name, datasets.Options{N: p.size(defaultN, 150), Seed: p.Seed})
		if err != nil {
			return err
		}
		// Yelp's 10 candidates make rank-based scores harsher; that is the
		// paper's setting too.
		fmt.Fprintf(w, "%s (n=%d, t=%d, score=%s)\n", name, d.Sys.N(), horizon, score.Name())
		fmt.Fprintf(w, "%-7s", "method")
		for _, k := range ks {
			fmt.Fprintf(w, " %12s", fmt.Sprintf("k=%d", k))
		}
		fmt.Fprintf(w, " %12s\n", "time(s)")
		for _, m := range methods.Names {
			fmt.Fprintf(w, "%-7s", m)
			var lastTime float64
			for _, k := range ks {
				prob := defaultProblem(d, horizon, k, score)
				res, err := runMethod(m, prob, p.Seed, p.Parallelism)
				if err != nil {
					return fmt.Errorf("%s on %s: %w", m, name, err)
				}
				fmt.Fprintf(w, " %12.2f", res.Exact)
				lastTime = res.Seconds
			}
			fmt.Fprintf(w, " %12.3f\n", lastTime)
		}
	}
	return nil
}

// Fig6 reproduces the plurality effectiveness/efficiency sweep (Fig 6).
func Fig6(w io.Writer, p Params) error {
	header(w, "Fig 6: plurality score vs seed set size k")
	names := []string{"yelp-like", "twitter-election-like", "twitter-mask-like"}
	if p.Quick {
		names = names[:1]
	}
	return scoreVsK(w, p, voting.Plurality{}, names, 2000)
}

// Fig7 reproduces the Copeland sweep (Fig 7).
func Fig7(w io.Writer, p Params) error {
	header(w, "Fig 7: Copeland score vs seed set size k")
	names := []string{"yelp-like", "twitter-election-like", "twitter-mask-like"}
	if p.Quick {
		names = names[:1]
	}
	return scoreVsK(w, p, voting.Copeland{}, names, 2000)
}

// Fig8 reproduces the cumulative sweep (Fig 8); the paper highlights that
// DM and GED-T coincide here (and only here).
func Fig8(w io.Writer, p Params) error {
	header(w, "Fig 8: cumulative score vs seed set size k")
	names := []string{"yelp-like", "twitter-election-like", "twitter-mask-like"}
	if p.Quick {
		names = names[:1]
	}
	return scoreVsK(w, p, voting.Cumulative{}, names, 2000)
}

// Fig9 reproduces the seed-set overlap study among the plurality variants
// (Fig 9): positional-p-approval sweeps ω[p] from 0 to 1, morphing from
// (p−1)-approval to p-approval; overlaps with the plurality and p-approval
// seed sets are reported. All seed sets come from the RS method with a
// common θ, as comparability demands.
func Fig9(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Fig 9: seed overlap of positional-p-approval vs plurality variants (yelp-like)")
	d, err := datasets.YelpLike(datasets.Options{N: p.size(3000, 200), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(100, 5)
	horizon := horizonFor(p)
	theta := p.size(1<<15, 2048)
	selectFor := func(score voting.Score) ([]int32, error) {
		prob := defaultProblem(d, horizon, k, score)
		res, err := sketch.SelectWithTheta(prob, theta, p.Seed, p.Parallelism)
		if err != nil {
			return nil, err
		}
		return res.Seeds, nil
	}
	plu, err := selectFor(voting.Plurality{})
	if err != nil {
		return err
	}
	for _, pp := range []int{2, 3} {
		app, err := selectFor(voting.PApproval{P: pp})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "positional-%d-approval (k=%d, theta=%d)\n", pp, k, theta)
		fmt.Fprintf(w, "%8s %22s %22s\n", "omega[p]", "overlap w/ plurality", fmt.Sprintf("overlap w/ %d-approval", pp))
		omegas := pickInts(p, []int{0, 25, 50, 75, 100}, []int{0, 100})
		for _, pct := range omegas {
			om := make([]float64, pp)
			for i := 0; i < pp-1; i++ {
				om[i] = 1
			}
			om[pp-1] = float64(pct) / 100
			pos := voting.Positional{P: pp, Omega: om}
			seeds, err := selectFor(pos)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%8.2f %21.1f%% %21.1f%%\n",
				om[pp-1], overlap(seeds, plu), overlap(seeds, app))
		}
	}
	return nil
}

// Fig10 reproduces the rank-position distribution study (Fig 10): how many
// users rank the target at each position at the horizon, for the seed sets
// of the different plurality variants.
func Fig10(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Fig 10: users ranking the target at each position (yelp-like)")
	d, err := datasets.YelpLike(datasets.Options{N: p.size(3000, 200), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(100, 5)
	horizon := horizonFor(p)
	theta := p.size(1<<15, 2048)
	variants := []voting.Score{
		voting.Plurality{},
		voting.PApproval{P: 2},
		voting.PApproval{P: 3},
	}
	fmt.Fprintf(w, "%-22s", "variant")
	maxPos := 5
	if d.Sys.R() < maxPos {
		maxPos = d.Sys.R()
	}
	for i := 1; i <= maxPos; i++ {
		fmt.Fprintf(w, " %10s", fmt.Sprintf("pos %d", i))
	}
	fmt.Fprintln(w)
	for _, score := range variants {
		prob := defaultProblem(d, horizon, k, score)
		res, err := sketch.SelectWithTheta(prob, theta, p.Seed, p.Parallelism)
		if err != nil {
			return err
		}
		B, err := opinion.Matrix(d.Sys, horizon, d.DefaultTarget, res.Seeds, p.Parallelism)
		if err != nil {
			return err
		}
		hist := voting.RankHistogram(B, d.DefaultTarget)
		fmt.Fprintf(w, "%-22s", score.Name())
		for i := 0; i < maxPos; i++ {
			fmt.Fprintf(w, " %10d", hist[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}
