// Package baselines implements the competing seed-selection strategies of
// §VIII-A: classic influence maximization under the IC and LT models via
// IMM [3], the GED-T greedy of Gionis et al. [25] adapted to a finite time
// horizon, PageRank, random walk with restart (RWR), and degree centrality.
// All baselines differ only in how they pick seeds; the experiment harness
// evaluates every method's seed set in the same multi-campaign FJ + voting
// setting (as the paper does).
package baselines

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ovm/internal/core"
	"ovm/internal/graph"
	"ovm/internal/im"
	"ovm/internal/voting"
)

// Method identifies a baseline.
type Method string

// The baselines of §VIII-A.
const (
	MethodIC   Method = "IC"    // IMM with the independent cascade model
	MethodLT   Method = "LT"    // IMM with the linear threshold model
	MethodGEDT Method = "GED-T" // [25]'s greedy, horizon-adapted (cumulative objective)
	MethodPR   Method = "PR"    // PageRank
	MethodRWR  Method = "RWR"   // random walk with restart on the reverse influence graph
	MethodDC   Method = "DC"    // degree centrality
)

// The PageRank/RWR power iteration as Select runs it: the restart
// complement, the iteration bound and the L1 convergence tolerance.
const (
	damping    = 0.85
	powerIters = 100
	powerTol   = 1e-10
)

// Config bundles baseline parameters.
type Config struct {
	// IMM holds the IC/LT sampling parameters.
	IMM im.IMMConfig
	// Parallelism caps the engine worker pool for the sampling-based
	// baselines (IC/LT RR-set generation, GED-T greedy evaluation): 0 means
	// GOMAXPROCS, 1 disables concurrency. Selected seeds are bit-identical
	// across Parallelism values. It seeds IMM.Parallelism when that is 0.
	Parallelism int
	// RRCache optionally supplies a precomputed RR-set collection for the
	// IC/LT baselines (a loaded ovmd index artifact). It is consulted only
	// when its model matches the requested baseline; the IMM run copies
	// cached set prefixes instead of re-sampling them and stays
	// byte-identical to an uncached run. The cache must stem from the same
	// graph and IMM stream (seed IMM.Seed) — im.IMMCached rejects mismatches.
	RRCache *im.RRCollection
}

// Select runs the named baseline for the problem's (graph, k), ignoring the
// problem's voting score except for GED-T (which maximizes the cumulative
// score no matter the target score, as in the paper).
func Select(m Method, p *core.Problem, cfg Config) ([]int32, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.IMM.Parallelism == 0 {
		cfg.IMM.Parallelism = cfg.Parallelism
	}
	if cfg.IMM.Ctx == nil {
		cfg.IMM.Ctx = p.Ctx
	}
	g := p.Sys.Candidate(p.Target).G
	rrCache := func(model im.Model) *im.RRCollection {
		if cfg.RRCache != nil && cfg.RRCache.Model() == model {
			return cfg.RRCache
		}
		return nil
	}
	switch m {
	case MethodIC:
		res, err := im.IMMCached(g, im.IC, p.K, cfg.IMM, rrCache(im.IC))
		if err != nil {
			return nil, err
		}
		return res.Seeds, nil
	case MethodLT:
		res, err := im.IMMCached(g, im.LT, p.K, cfg.IMM, rrCache(im.LT))
		if err != nil {
			return nil, err
		}
		return res.Seeds, nil
	case MethodGEDT:
		q := *p
		q.Score = voting.Cumulative{}
		seeds, _, err := core.SelectSeedsDM(&q, cfg.Parallelism)
		return seeds, err
	case MethodPR, MethodRWR:
		power := pageRankCtx
		if m == MethodRWR {
			power = reverseRWRCtx
		}
		scores, err := power(p.Ctx, g, damping, powerIters, powerTol)
		if err != nil {
			return nil, err
		}
		return TopK(scores, p.K), nil
	case MethodDC:
		return TopK(WeightedOutDegree(g), p.K), nil
	default:
		return nil, fmt.Errorf("baselines: unknown method %q", m)
	}
}

// PageRank computes the classic PageRank vector: a random surfer follows
// out-edges (normalized by total out-weight) with probability damping and
// teleports uniformly otherwise; dangling nodes always teleport.
func PageRank(g *graph.Graph, damping float64, iters int, tol float64) []float64 {
	scores, _ := pageRankCtx(nil, g, damping, iters, tol)
	return scores
}

// pageRankCtx is PageRank with a per-power-iteration cancellation poll.
func pageRankCtx(ctx context.Context, g *graph.Graph, damping float64, iters int, tol float64) ([]float64, error) {
	n := g.N()
	cur := make([]float64, n)
	next := make([]float64, n)
	outSum := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		_, w := g.OutNeighbors(v)
		for _, x := range w {
			outSum[v] += x
		}
	}
	for v := range cur {
		cur[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		dangling := 0.0
		for v := range next {
			next[v] = 0
		}
		for v := int32(0); v < int32(n); v++ {
			if outSum[v] <= 0 {
				dangling += cur[v]
				continue
			}
			dst, w := g.OutNeighbors(v)
			for i, u := range dst {
				next[u] += damping * cur[v] * w[i] / outSum[v]
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		diff := 0.0
		for v := range next {
			next[v] += base
			diff += math.Abs(next[v] - cur[v])
		}
		cur, next = next, cur
		if diff < tol {
			break
		}
	}
	return cur, nil
}

// ReverseRWR computes a random-walk-with-restart score on the reverse
// influence graph: the walker moves from a node to one of its influencers
// (in-neighbors, with probability equal to the column-stochastic influence
// weight) with probability damping and restarts uniformly otherwise.
// Frequently visited nodes are strong influencers at any horizon — this is
// the RWR baseline of [25] recast in our weight convention.
func ReverseRWR(g *graph.Graph, damping float64, iters int, tol float64) []float64 {
	scores, _ := reverseRWRCtx(nil, g, damping, iters, tol)
	return scores
}

// reverseRWRCtx is ReverseRWR with a per-power-iteration cancellation poll.
func reverseRWRCtx(ctx context.Context, g *graph.Graph, damping float64, iters int, tol float64) ([]float64, error) {
	n := g.N()
	cur := make([]float64, n)
	next := make([]float64, n)
	for v := range cur {
		cur[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for v := range next {
			next[v] = (1 - damping) / float64(n)
		}
		// Reverse transition: mass at v flows to its in-neighbors u with
		// probability w_uv (in-weights sum to 1 per node).
		for v := int32(0); v < int32(n); v++ {
			src, w := g.InNeighbors(v)
			for i, u := range src {
				next[u] += damping * cur[v] * w[i]
			}
		}
		diff := 0.0
		for v := range next {
			diff += math.Abs(next[v] - cur[v])
		}
		cur, next = next, cur
		if diff < tol {
			break
		}
	}
	return cur, nil
}

// WeightedOutDegree returns each node's total out-edge weight (the DC
// baseline's ranking key).
func WeightedOutDegree(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	for v := int32(0); v < int32(n); v++ {
		_, w := g.OutNeighbors(v)
		for _, x := range w {
			out[v] += x
		}
	}
	return out
}

// TopK returns the indices of the k largest scores (ties broken by lower
// index, for determinism).
func TopK(scores []float64, k int) []int32 {
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return int(a) - int(b)
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
