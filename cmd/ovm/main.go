// Command ovm runs voting-based opinion maximization on a synthetic
// dataset: select k seeds for the target candidate with the chosen method
// and score, report the exact score, and optionally solve FJ-Vote-Win.
//
// Usage examples:
//
//	ovm -dataset yelp-like -n 5000 -method RS -score plurality -k 100 -t 20
//	ovm -dataset twitter-mask-like -method RW -score copeland -k 50
//	ovm -dataset twitter-mask-like -method DM -score plurality -win
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ovm"
	"ovm/internal/cliutil"
	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/methods"
	"ovm/internal/serialize"
	"ovm/internal/voting"
)

func main() {
	var (
		dataset = flag.String("dataset", "yelp-like", "dataset: "+strings.Join(ovm.DatasetNames, ", "))
		n       = flag.Int("n", 0, "node count override (0 = dataset default)")
		mu      = flag.Float64("mu", 10, "edge-weight decay constant µ")
		method  = flag.String("method", "RS", "method: "+strings.Join(methods.Names, ", "))
		score   = flag.String("score", "plurality", "score: "+strings.Join(voting.ScoreNames, ", "))
		pVal    = flag.Int("p", 2, "p for p-approval / positional scores")
		omegaP  = flag.Float64("omegap", 0.5, "ω[p] for the positional score (ω[1..p-1] = 1)")
		k       = flag.Int("k", 50, "seed budget")
		horizon = flag.Int("t", 20, "time horizon")
		target  = flag.Int("target", -1, "target candidate index (-1 = dataset default)")
		seed    = flag.Int64("seed", 1, "random seed")
		theta   = flag.Int("theta", 0, "fixed sketch count θ for the RS method (0 = paper's θ search); matches ovmd index artifacts")
		par     = flag.Int("parallel", 0, "engine worker count (0 = GOMAXPROCS, 1 = serial); never changes the result")
		win     = flag.Bool("win", false, "solve FJ-Vote-Win (minimum seeds to win) instead of FJ-Vote")
		load    = flag.String("load", "", "load a .system file (written by ovmgen -system) instead of synthesizing a dataset")
		updates = flag.String("updates", "", "JSONL mutation file replayed onto the system before querying (each line one batch: an op object or an array of ops)")
		listAll = flag.Bool("list", false, "list datasets and exit")
	)
	flag.Parse()

	checkFlag(*n >= 0, "-n must be >= 0, got %d", *n)
	checkFlag(*mu > 0, "-mu must be > 0, got %v", *mu)
	checkFlag(*pVal >= 1, "-p must be >= 1, got %d", *pVal)
	checkFlag(*k >= 1, "-k must be >= 1, got %d", *k)
	checkFlag(*horizon >= 0, "-t must be >= 0, got %d", *horizon)
	checkFlag(*theta >= 0, "-theta must be >= 0, got %d", *theta)
	checkFlag(*par >= 0, "-parallel must be >= 0, got %d", *par)

	if *listAll {
		for _, name := range ovm.DatasetNames {
			fmt.Println(name)
		}
		return
	}

	var sys *ovm.System
	var names []string
	var label string
	tgt := 0
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		sys, err = serialize.ReadSystem(f)
		_ = f.Close()
		if err != nil {
			fatal(err)
		}
		label = *load
		for q := 0; q < sys.R(); q++ {
			names = append(names, sys.Candidate(q).Name)
		}
	} else {
		d, err := ovm.LoadDataset(*dataset, ovm.DatasetOptions{N: *n, Mu: *mu, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		sys, names, label, tgt = d.Sys, d.CandidateNames, d.Name, d.DefaultTarget
	}
	if *target >= 0 {
		tgt = *target
	}
	cliutil.CheckArg("ovm", core.ValidateTargetHorizon(tgt, *horizon, sys.R()))
	if *updates != "" {
		f, err := os.Open(*updates)
		if err != nil {
			fatal(err)
		}
		batches, err := dynamic.ReadBatches(f)
		_ = f.Close()
		if err != nil {
			fatal(err)
		}
		var touched int
		sys, touched, err = dynamic.ReplaySystem(sys, batches)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d update batches from %s (%d nodes touched)\n", len(batches), *updates, touched)
	}
	// The positional score's ω[1..p] is all ones but its last weight.
	omega := voting.PApprovalAsPositional(*pVal).Omega
	omega[*pVal-1] = *omegaP
	sc, err := voting.ParseScore(*score, *pVal, omega, sys.R())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dataset=%s n=%d m=%d r=%d target=%q score=%s t=%d\n",
		label, sys.N(), sys.Candidate(0).G.M(), sys.R(),
		names[tgt], sc.Name(), *horizon)

	opts := &ovm.SelectOptions{Seed: *seed, Parallelism: *par}
	opts.RS.FixedTheta = *theta
	if *win {
		seeds, err := ovm.MinSeedsToWin(sys, tgt, *horizon, sc, ovm.Method(*method), opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("minimum seeds to win (method %s): k* = %d\n", *method, len(seeds))
		printSeeds(seeds)
		return
	}

	prob := &ovm.Problem{Sys: sys, Target: tgt, Horizon: *horizon, K: *k, Score: sc}
	sel, err := ovm.SelectSeeds(prob, ovm.Method(*method), opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("method=%s k=%d exact score=%.3f elapsed=%s\n",
		sel.Method, *k, sel.ExactValue, sel.Elapsed.Round(1000000))
	baseline, err := ovm.Evaluate(sys, tgt, *horizon, sc, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("score without seeds: %.3f (uplift %.3f)\n", baseline, sel.ExactValue-baseline)
	printSeeds(sel.Seeds)
	ok, err := ovm.Wins(sys, tgt, *horizon, sc, sel.Seeds)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("target wins with these seeds: %v\n", ok)
}

func printSeeds(seeds []int32) {
	limit := len(seeds)
	if limit > 20 {
		limit = 20
	}
	fmt.Printf("seeds (%d total): %v", len(seeds), seeds[:limit])
	if len(seeds) > limit {
		fmt.Printf(" …")
	}
	fmt.Println()
}

func checkFlag(ok bool, format string, args ...any) {
	cliutil.CheckFlag("ovm", ok, format, args...)
}

func fatal(err error) { cliutil.Fatal("ovm", err) }
