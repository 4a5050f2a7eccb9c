// Package ovm is the public façade of the voting-based opinion
// maximization library, a from-scratch Go reproduction of "Voting-based
// Opinion Maximization" (Saha, Ke, Khan, Lakshmanan; ICDE 2023).
//
// The library answers the question: given a social network where opinions
// about r competing candidates evolve by the Friedkin–Johnsen (FJ) /
// DeGroot dynamics, which k users should a target campaigner seed so that,
// at a finite time horizon t, a voting-based winning criterion (cumulative,
// plurality, p-approval, positional-p-approval, or Copeland) is maximized?
//
// Quick start:
//
//	g, _ := ovm.NewGraphBuilder(4).... // or ovm.FromEdges
//	sys, _ := ovm.NewSystem([]*ovm.Candidate{c1, c2})
//	prob := &ovm.Problem{Sys: sys, Target: 0, Horizon: 20, K: 10, Score: ovm.Plurality()}
//	sel, _ := ovm.SelectSeeds(prob, ovm.MethodRS, nil)
//	fmt.Println(sel.Seeds, sel.ExactValue)
//
// Three solution methods are provided, mirroring the paper:
//
//   - MethodDM — exact greedy via direct matrix-vector iteration, wrapped
//     in sandwich approximation for the non-submodular scores (§III, §IV);
//   - MethodRW — random-walk estimation with per-score walk-count
//     guarantees (Algorithm 4, §V);
//   - MethodRS — sketch-based estimation, the paper's recommended method
//     (Algorithm 5, §VI).
//
// Baseline selectors (IC, LT via IMM, GED-T, PageRank, RWR, degree
// centrality) are available through the same entry point for comparison
// studies, and the experiments registry regenerates every table and figure
// of the paper's evaluation.
//
// # Parallelism
//
// Every hot path — DM gain evaluation, walk and sketch generation, RR-set
// sampling, the greedy scans — runs on a bounded worker pool
// (internal/engine). SelectOptions.Parallelism (and the matching fields on
// RWConfig, RSConfig, and BaselineConfig) sets the worker count: 0 means
// GOMAXPROCS, 1 forces serial execution. Parallelism is strictly an
// execution knob: work is sharded and each work item consumes its own
// deterministic random substream, so seed sets, scores, and estimates are
// bit-identical for every setting — run with 1 worker or 64 and diff
// nothing.
package ovm

import (
	"time"

	"ovm/internal/baselines"
	"ovm/internal/core"
	"ovm/internal/datasets"
	"ovm/internal/graph"
	"ovm/internal/methods"
	"ovm/internal/opinion"
	"ovm/internal/rwalk"
	"ovm/internal/sampling"
	"ovm/internal/sketch"
	"ovm/internal/voting"
)

// Core model types, re-exported from the internal packages.
type (
	// Graph is a directed, weighted influence graph in CSR form.
	Graph = graph.Graph
	// Edge is one directed weighted edge.
	Edge = graph.Edge
	// GraphBuilder accumulates edges into a Graph.
	GraphBuilder = graph.Builder
	// Candidate bundles a candidate's influence graph, initial opinions,
	// and stubbornness values.
	Candidate = opinion.Candidate
	// System is a multi-candidate opinion world.
	System = opinion.System
	// Problem is an FJ-Vote instance (Problem 1 of the paper).
	Problem = core.Problem
	// Score is a voting-based winning criterion.
	Score = voting.Score
	// Dataset is a synthetic stand-in for one of the paper's datasets.
	Dataset = datasets.Dataset
	// DatasetOptions sizes a synthetic dataset.
	DatasetOptions = datasets.Options
	// RWConfig tunes the random-walk method.
	RWConfig = rwalk.Config
	// RSConfig tunes the sketch method.
	RSConfig = sketch.Config
	// BaselineConfig tunes the baseline selectors.
	BaselineConfig = baselines.Config
)

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// FromEdges builds a column-stochastic influence graph from an edge list
// (in-weights normalized to 1 per node; in-degree-0 nodes gain self-loops).
func FromEdges(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdgesColumnStochastic(n, edges)
}

// NewSystem validates and assembles a multi-candidate system.
func NewSystem(cands []*Candidate) (*System, error) { return opinion.NewSystem(cands) }

// OpinionsAt computes B_q^(t)[S] for one candidate by direct FJ iteration.
func OpinionsAt(c *Candidate, t int, seeds []int32) []float64 {
	return opinion.OpinionsAt(c, t, seeds)
}

// OpinionMatrix computes the full horizon-t opinion matrix with the seed
// set applied to the target candidate only.
func OpinionMatrix(sys *System, t, target int, seeds []int32) ([][]float64, error) {
	return opinion.Matrix(sys, t, target, seeds, 0)
}

// Score constructors (§II-B).

// Cumulative returns the cumulative score (Equation 3).
func Cumulative() Score { return voting.Cumulative{} }

// Plurality returns the plurality score (Equation 4).
func Plurality() Score { return voting.Plurality{} }

// PApproval returns the p-approval score (Equation 5).
func PApproval(p int) Score { return voting.PApproval{P: p} }

// Positional returns the positional-p-approval score (Equation 6); omega
// holds the non-increasing position weights ω[1..p] in [0,1].
func Positional(p int, omega []float64) Score {
	return voting.Positional{P: p, Omega: omega}
}

// Copeland returns the Copeland score (Equation 7).
func Copeland() Score { return voting.Copeland{} }

// Borda returns the classic Borda count for r candidates, expressed as a
// positional-r-approval score (rank i earns (r−i)/(r−1)) — an extension in
// the spirit of the paper's future work; all selectors apply unchanged.
func Borda(r int) Score { return voting.BordaAsPositional(r) }

// Method identifies a seed-selection strategy.
type Method string

// The three proposed methods and the six baselines of §VIII-A.
const (
	MethodDM   Method = "DM"
	MethodRW   Method = "RW"
	MethodRS   Method = "RS"
	MethodIC   Method = "IC"
	MethodLT   Method = "LT"
	MethodGEDT Method = "GED-T"
	MethodPR   Method = "PR"
	MethodRWR  Method = "RWR"
	MethodDC   Method = "DC"
)

// Methods lists every selectable method.
var Methods = func() []Method {
	ms := make([]Method, len(methods.Names))
	for i, name := range methods.Names {
		ms[i] = Method(name)
	}
	return ms
}()

// SelectOptions tunes SelectSeeds; the zero value (or nil) uses the
// paper's default parameters (ρ=0.9, δ=0.1, ε=0.1, l=1) and full
// parallelism.
type SelectOptions = methods.Options

// Selection is the outcome of SelectSeeds.
type Selection struct {
	Method Method
	Seeds  []int32
	// ExactValue is F(B^(t)[S], target), evaluated by direct diffusion.
	ExactValue float64
	// Elapsed is the seed-selection wall time.
	Elapsed time.Duration
}

// SelectSeeds solves the FJ-Vote instance with the chosen method and
// evaluates the returned seed set exactly.
func SelectSeeds(p *Problem, m Method, opts *SelectOptions) (*Selection, error) {
	if opts == nil {
		opts = &SelectOptions{}
	}
	start := time.Now()
	seeds, _, err := methods.Select(string(m), p, *opts)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	exact, err := core.EvaluateExact(p.Sys, p.Target, p.Horizon, p.Score, seeds, opts.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Selection{Method: m, Seeds: seeds, ExactValue: exact, Elapsed: elapsed}, nil
}

// Evaluate computes the exact score of an arbitrary seed set.
func Evaluate(sys *System, target, horizon int, score Score, seeds []int32) (float64, error) {
	return core.EvaluateExact(sys, target, horizon, score, seeds, 0)
}

// Wins reports whether the target strictly beats every competitor with the
// given seeds (the FJ-Vote-Win predicate).
func Wins(sys *System, target, horizon int, score Score, seeds []int32) (bool, error) {
	return core.Wins(sys, target, horizon, score, seeds)
}

// ErrCannotWin is returned by MinSeedsToWin when no seed set makes the
// target the strict winner.
var ErrCannotWin = core.ErrCannotWin

// MinSeedsToWin solves FJ-Vote-Win (Problem 2): the smallest seed set with
// which the target wins, using the given method for the inner selections.
func MinSeedsToWin(sys *System, target, horizon int, score Score, m Method, opts *SelectOptions) ([]int32, error) {
	if opts == nil {
		opts = &SelectOptions{}
	}
	base := core.Problem{Sys: sys, Target: target, Horizon: horizon, K: 1, Score: score}
	sel, err := methods.Selector(string(m), base, *opts)
	if err != nil {
		return nil, err
	}
	return core.MinSeedsToWin(sys, target, horizon, score, sel)
}

// CondorcetWinner returns the candidate beating all others pairwise at the
// horizon, or -1 if none exists.
func CondorcetWinner(B [][]float64) int { return voting.CondorcetWinner(B) }

// Winner returns the argmax candidate and score under F.
func Winner(B [][]float64, f Score) (int, float64) { return voting.Winner(B, f) }

// LoadDataset builds one of the synthetic stand-ins for the paper's
// datasets ("dblp-like", "yelp-like", "twitter-election-like",
// "twitter-distancing-like", "twitter-mask-like").
func LoadDataset(name string, o DatasetOptions) (*Dataset, error) {
	return datasets.ByName(name, o)
}

// DatasetNames lists the available synthetic datasets.
var DatasetNames = datasets.Names

// PreferentialAttachmentEdges generates a heavy-tailed directed graph à la
// Barabási–Albert: each arriving node links to mOut earlier nodes chosen
// proportionally to in-degree + 1. Weights are 1; pass the result through
// FromEdges for a normalized influence graph.
func PreferentialAttachmentEdges(n, mOut int, seed int64) ([]Edge, error) {
	return graph.PreferentialAttachment(n, mOut, sampling.NewRand(seed, 601))
}

// GnpEdges generates a directed Erdős–Rényi G(n, p) edge list.
func GnpEdges(n int, p float64, seed int64) ([]Edge, error) {
	return graph.Gnp(n, p, sampling.NewRand(seed, 602))
}

// PlantedPartitionEdges generates a directed community graph (comms
// round-robin communities; Poisson(avgIntra) intra- and Poisson(avgInter)
// inter-community out-edges per node) and the community assignment.
func PlantedPartitionEdges(n, comms int, avgIntra, avgInter float64, seed int64) ([]Edge, []int, error) {
	return graph.PlantedPartition(n, comms, avgIntra, avgInter, sampling.NewRand(seed, 603))
}
