package im

import (
	"context"
	"fmt"
	"math"

	"ovm/internal/graph"
	"ovm/internal/sampling"
	"ovm/internal/stats"
)

// IMMConfig parameterizes the IMM algorithm of Tang et al. [3].
type IMMConfig struct {
	// Epsilon is the approximation slack (default 0.5, the value the IMM
	// paper itself uses for large graphs; the result is
	// (1−1/e−ε)-approximate with probability 1 − n^{−L}).
	Epsilon float64
	// L sets the failure probability n^{−L} (default 1).
	L float64
	// MaxSets caps the number of RR sets (memory guard; default 1<<22).
	MaxSets int
	// Seed drives sampling.
	Seed int64
	// Parallelism caps the engine worker pool for RR-set generation: 0
	// means GOMAXPROCS, 1 disables concurrency. The sampled sets — and the
	// selected seeds — are bit-identical across Parallelism values.
	Parallelism int
	// Ctx, when set, is polled between sampling/cover phases; a done
	// context abandons the run with ctx.Err(). Only the run's private
	// RRCollection is discarded, so a retry is bit-identical.
	Ctx context.Context
}

func (c IMMConfig) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

func (c IMMConfig) withDefaults() IMMConfig {
	if c.Epsilon == 0 {
		c.Epsilon = 0.5
	}
	if c.L == 0 {
		c.L = 1
	}
	if c.MaxSets == 0 {
		c.MaxSets = 1 << 22
	}
	return c
}

// IMMResult reports the outcome of an IMM run.
type IMMResult struct {
	Seeds          []int32
	SpreadEstimate float64 // n · covered fraction
	NumRRSets      int
	OPTLowerBound  float64
}

// RRStream is the substream family IMM draws its RR sets from: set i consumes
// RRStream(seed).At(i), so IMM's seeds depend on the id. No index file holds
// RR sets; the walks package's golden test pins what the family draws (the
// walk families are in the walks package doc).
func RRStream(seed int64) sampling.Stream { return sampling.Stream{Seed: seed, ID: 701} }

// IMM runs the two-phase IMM algorithm: the martingale-based sampling phase
// estimates a lower bound on the optimal spread OPT and derives the
// required RR-set count θ; the node-selection phase greedily covers the
// sampled sets.
func IMM(g *graph.Graph, model Model, k int, cfg IMMConfig) (*IMMResult, error) {
	cfg = cfg.withDefaults()
	n := g.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("im: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("im: epsilon must lie in (0,1), got %v", cfg.Epsilon)
	}
	if cfg.L <= 0 {
		return nil, fmt.Errorf("im: l must be positive, got %v", cfg.L)
	}
	nf := float64(n)
	logN := math.Log(nf)
	logBinom := stats.LogChoose(n, k)

	// Phase 1: estimate a lower bound on OPT (Algorithm 2 of [3]).
	epsPrime := math.Sqrt2 * cfg.Epsilon
	lambdaPrime := (2 + 2*epsPrime/3) * (logBinom + cfg.L*logN + math.Log(math.Max(math.Log2(nf), 1))) * nf / (epsPrime * epsPrime)
	col := NewRRCollection(g, model, RRStream(cfg.Seed), cfg.Parallelism)
	lb := 1.0
	for i := 1; i < int(math.Ceil(math.Log2(nf))); i++ {
		if err := cfg.ctxErr(); err != nil {
			return nil, err
		}
		x := nf / math.Pow(2, float64(i))
		thetaI := int(math.Ceil(lambdaPrime / x))
		if thetaI > cfg.MaxSets {
			thetaI = cfg.MaxSets
		}
		if col.NumSets() < thetaI {
			col.Add(thetaI - col.NumSets())
		}
		_, frac := col.GreedyCover(k)
		if nf*frac >= (1+epsPrime)*x {
			lb = nf * frac / (1 + epsPrime)
			break
		}
		if col.NumSets() >= cfg.MaxSets {
			break
		}
	}

	// Phase 2: θ from the martingale bound, then greedy node selection.
	alpha := math.Sqrt(cfg.L*logN + math.Ln2)
	beta := math.Sqrt((1 - 1/math.E) * (logBinom + cfg.L*logN + math.Ln2))
	lambdaStar := 2 * nf * math.Pow((1-1/math.E)*alpha+beta, 2) / (cfg.Epsilon * cfg.Epsilon)
	theta := int(math.Ceil(lambdaStar / lb))
	if theta > cfg.MaxSets {
		theta = cfg.MaxSets
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	if col.NumSets() < theta {
		col.Add(theta - col.NumSets())
	}
	if err := cfg.ctxErr(); err != nil {
		return nil, err
	}
	seeds, frac := col.GreedyCover(k)
	return &IMMResult{
		Seeds:          seeds,
		SpreadEstimate: nf * frac,
		NumRRSets:      col.NumSets(),
		OPTLowerBound:  lb,
	}, nil
}
