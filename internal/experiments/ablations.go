package experiments

import (
	"fmt"
	"io"
	"time"

	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/graph"
	"ovm/internal/im"
	"ovm/internal/sampling"
	"ovm/internal/stats"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// AblationCELF quantifies the CELF optimization of §III-C: objective
// evaluations and wall time of plain Algorithm-1 greedy vs the lazy CELF
// variant on the (submodular) cumulative score — identical values, far
// fewer evaluations.
func AblationCELF(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Ablation: plain greedy vs CELF (cumulative, DM)")
	d, err := datasets.YelpLike(datasets.Options{N: p.size(600, 120), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(10, 3)
	prob := defaultProblem(d, horizonFor(p), k, voting.Cumulative{})
	fmt.Fprintf(w, "n=%d k=%d t=%d\n", d.Sys.N(), k, prob.Horizon)
	fmt.Fprintf(w, "%-8s %12s %14s %12s\n", "variant", "value", "evaluations", "time(s)")
	in, err := core.NewInstance(nil, prob.Sys, prob.Target, prob.Horizon, 1)
	if err != nil {
		return err
	}
	for _, variant := range []string{"plain", "CELF"} {
		obj := core.NewDMObjective(in, prob.Score, 1)
		start := time.Now()
		var res *core.GreedyResult
		if variant == "plain" {
			res, err = core.Greedy(nil, obj, k)
		} else {
			res, err = core.GreedyCELF(nil, obj, k)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %12.2f %14d %12.3f\n",
			variant, res.Value, res.Evaluations, time.Since(start).Seconds())
	}
	return nil
}

// AblationTruncation quantifies the Post-Generation Truncation design of
// §V-B: reusing one walk set across all k rounds (truncating at chosen
// seeds) versus regenerating fresh walks with the updated seed set every
// round (Direct Generation). Both are unbiased (Theorems 8/9); truncation
// trades a one-time generation cost for k cheap truncation passes.
func AblationTruncation(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Ablation: post-generation truncation vs per-round regeneration (RW, cumulative)")
	d, err := datasets.TwitterMaskLike(datasets.Options{N: p.size(2000, 200), Seed: p.Seed})
	if err != nil {
		return err
	}
	k := p.size(20, 3)
	horizon := horizonFor(p)
	cand := d.Sys.Candidate(d.DefaultTarget)
	sampler, err := graph.NewInEdgeSampler(cand.G)
	if err != nil {
		return err
	}
	comp := core.CompetitorOpinions(d.Sys, d.DefaultTarget, horizon, p.Parallelism)
	lam, err := stats.WalksForCumulative(0.1, 0.9)
	if err != nil {
		return err
	}
	plan := make([]int32, d.Sys.N())
	for v := range plan {
		plan[v] = int32(lam)
	}
	fmt.Fprintf(w, "n=%d k=%d t=%d lambda=%d\n", d.Sys.N(), k, horizon, lam)
	fmt.Fprintf(w, "%-14s %12s %12s\n", "variant", "exact score", "time(s)")

	// Variant A: generate once, truncate per round (the paper's design).
	startA := time.Now()
	setA, err := walks.Generate(sampler, cand.Stub, horizon, plan, sampling.Stream{Seed: p.Seed, ID: 501}, p.Parallelism)
	if err != nil {
		return err
	}
	estA, err := walks.NewEstimator(setA, d.DefaultTarget, cand.Init, comp, walks.UniformOwnerWeights(setA), p.Parallelism)
	if err != nil {
		return err
	}
	resA, err := estA.SelectGreedy(k, voting.Cumulative{})
	if err != nil {
		return err
	}
	timeA := time.Since(startA).Seconds()
	exactA, err := core.EvaluateExact(d.Sys, d.DefaultTarget, horizon, voting.Cumulative{}, resA.Seeds, p.Parallelism)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %12.2f %12.3f\n", "truncation", exactA, timeA)

	// Variant B: regenerate fresh walks with the current seed set applied
	// (seed nodes become fully stubborn with opinion 1) in every round.
	startB := time.Now()
	effInit := append([]float64(nil), cand.Init...)
	effStub := append([]float64(nil), cand.Stub...)
	var seedsB []int32
	for round := 0; round < k; round++ {
		set, err := walks.Generate(sampler, effStub, horizon, plan, sampling.Stream{Seed: p.Seed, ID: uint64(502 + round)}, p.Parallelism)
		if err != nil {
			return err
		}
		est, err := walks.NewEstimator(set, d.DefaultTarget, effInit, comp, walks.UniformOwnerWeights(set), p.Parallelism)
		if err != nil {
			return err
		}
		one, err := est.SelectGreedy(1, voting.Cumulative{})
		if err != nil {
			return err
		}
		s := one.Seeds[0]
		seedsB = append(seedsB, s)
		effInit[s] = 1
		effStub[s] = 1
	}
	timeB := time.Since(startB).Seconds()
	exactB, err := core.EvaluateExact(d.Sys, d.DefaultTarget, horizon, voting.Cumulative{}, seedsB, p.Parallelism)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %12.2f %12.3f\n", "regeneration", exactB, timeB)
	fmt.Fprintf(w, "speedup of truncation: %.1fx at matched quality\n", timeB/timeA)
	return nil
}

// AblationSketchShape quantifies the §VI-A claim that walk sketches are
// simpler and lighter than the RR-set (tree) sketches of classic IM: at a
// matched sketch count, compare average sketch size, total storage, and
// generation time.
func AblationSketchShape(w io.Writer, p Params) error {
	p = p.withDefaults()
	header(w, "Ablation: walk sketches vs RR-set sketches")
	d, err := datasets.TwitterMaskLike(datasets.Options{N: p.size(4000, 250), Seed: p.Seed})
	if err != nil {
		return err
	}
	cand := d.Sys.Candidate(d.DefaultTarget)
	g := cand.G
	theta := p.size(1<<15, 1024)
	horizon := horizonFor(p)
	sampler, err := graph.NewInEdgeSampler(g)
	if err != nil {
		return err
	}

	startW := time.Now()
	set, err := walks.GenerateSampled(sampler, cand.Stub, horizon, theta, sampling.Stream{Seed: p.Seed, ID: 503}, p.Parallelism)
	if err != nil {
		return err
	}
	walkTime := time.Since(startW).Seconds()
	walkElems := 0
	for i := 0; i < set.NumWalks(); i++ {
		walkElems += len(set.WalkNodes(i))
	}

	startR := time.Now()
	col := im.NewRRCollection(g, im.IC, sampling.Stream{Seed: p.Seed, ID: 504}, p.Parallelism)
	col.Add(theta)
	rrTime := time.Since(startR).Seconds()
	rrElems := 0
	for i := 0; i < col.NumSets(); i++ {
		rrElems += len(col.Set(i))
	}

	fmt.Fprintf(w, "n=%d theta=%d t=%d\n", g.N(), theta, horizon)
	fmt.Fprintf(w, "%-14s %14s %16s %12s\n", "sketch kind", "avg size", "total elements", "gen time(s)")
	fmt.Fprintf(w, "%-14s %14.2f %16d %12.3f\n", "walks (ours)",
		float64(walkElems)/float64(theta), walkElems, walkTime)
	fmt.Fprintf(w, "%-14s %14.2f %16d %12.3f\n", "RR sets (IM)",
		float64(rrElems)/float64(theta), rrElems, rrTime)
	return nil
}
