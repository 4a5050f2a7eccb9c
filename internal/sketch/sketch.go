// Package sketch implements the RS method (Algorithm 5, §VI): greedy seed
// selection over θ reverse-walk sketches whose start nodes are sampled
// uniformly at random (λ_v = 1 per sample, footnote 6).
//
// For the cumulative score, θ follows Theorem 13, with the required OPT
// lower bound obtained by a statistical hypothesis test in the style of
// IMM's Algorithm 2 [3] (EstimateOPT). For the plurality family and the
// Copeland score, the paper recommends (§VI-E) a heuristic: find the
// smallest θ at which the achieved score converges; HeuristicTheta
// implements the doubling search and records the trace plotted in
// Figs 13/14. The theoretical admissibility curves of Eq 44 (plurality) and
// Eq 48 (Copeland) are exposed as PluralityThetaLHS / CopelandThetaLHS for
// the Fig 3 study.
//
// What is RS's lives here: how many sketches. Drawing the sampled set,
// repairing it and running the greedy over it are walks.Draw's, shared with
// RW; GenerateSet, RepairSet and SelectOnSet spell those three calls for a
// sketch set.
package sketch

import (
	"fmt"
	"math"

	"ovm/internal/core"
	"ovm/internal/stats"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// Config controls the RS method.
type Config struct {
	// Epsilon is the approximation slack ε of Theorem 13 (default 0.1).
	Epsilon float64
	// L sets the success probability 1 − n^{−L} (default 1).
	L float64
	// InitialTheta seeds the heuristic doubling search (default 256).
	InitialTheta int
	// ConvergeTol is the relative score-change tolerance declaring
	// convergence in the heuristic search (default 0.01).
	ConvergeTol float64
	// MaxTheta caps the sketch count (default 1<<21).
	MaxTheta int
	// FixedTheta, when positive, bypasses both the Theorem-13 count and the
	// heuristic doubling search: Select runs Algorithm 5 with exactly this
	// sketch count. Serving systems use it to pin θ to a precomputed sketch
	// artifact so queries reuse the stored walks bit-identically.
	FixedTheta int
	// Seed drives all randomness.
	Seed int64
	// Parallelism caps the engine worker pool for sketch generation and the
	// greedy scans: 0 means GOMAXPROCS, 1 disables concurrency. Seeds and
	// scores are bit-identical across Parallelism values.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.L == 0 {
		c.L = 1
	}
	if c.InitialTheta == 0 {
		c.InitialTheta = 256
	}
	if c.ConvergeTol == 0 {
		c.ConvergeTol = 0.01
	}
	if c.MaxTheta == 0 {
		c.MaxTheta = 1 << 21
	}
	return c
}

func (c Config) validate() error {
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return fmt.Errorf("sketch: epsilon must lie in (0,1), got %v", c.Epsilon)
	}
	if c.L <= 0 {
		return fmt.Errorf("sketch: l must be positive, got %v", c.L)
	}
	if c.InitialTheta < 1 {
		return fmt.Errorf("sketch: initial theta must be >= 1, got %d", c.InitialTheta)
	}
	if c.MaxTheta < c.InitialTheta {
		return fmt.Errorf("sketch: max theta %d below initial theta %d", c.MaxTheta, c.InitialTheta)
	}
	if c.FixedTheta < 0 {
		return fmt.Errorf("sketch: fixed theta must be >= 0, got %d", c.FixedTheta)
	}
	return nil
}

// Result reports an RS run.
type Result struct {
	Seeds          []int32
	EstimatedValue float64
	Theta          int
	OPTLowerBound  float64 // cumulative only
	BytesUsed      int64
	// Rounds is the per-round work accounting of the greedy selection
	// (nil when cost accounting is disabled). Observability only: it
	// never influences seeds or scores.
	Rounds []walks.RoundCost
}

// Select runs Algorithm 5: Theorem-13 sketch counts for the cumulative
// score, heuristic convergence search for the other scores.
func Select(p *core.Problem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.FixedTheta > 0 {
		return SelectWithTheta(p, cfg.FixedTheta, cfg.Seed, cfg.Parallelism)
	}
	if _, ok := p.Score.(voting.Cumulative); ok {
		return selectCumulative(p, cfg)
	}
	theta, _, err := HeuristicTheta(p, cfg)
	if err != nil {
		return nil, err
	}
	return SelectWithTheta(p, theta, cfg.Seed, cfg.Parallelism)
}

// Draw is how Algorithm 5's sketch set is drawn: θ sampled starts from the RS
// family.
func Draw(seed int64, theta int) walks.Draw {
	return walks.Draw{Family: walks.FamilyRS, Seed: seed, Theta: theta}
}

// SelectWithTheta runs Algorithm 5 with a fixed sketch count θ.
// Parallelism follows the usual engine convention (0 = GOMAXPROCS, 1 =
// serial) and never changes the selected seeds.
func SelectWithTheta(p *core.Problem, theta int, seed int64, parallelism int) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	comp, err := core.CompetitorOpinionsCtx(p.Ctx, p.Sys, p.Target, p.Horizon, parallelism)
	if err != nil {
		return nil, err
	}
	set, err := GenerateSet(p, theta, seed, parallelism)
	if err != nil {
		return nil, err
	}
	return SelectOnSet(p, set, theta, comp, parallelism)
}

// GenerateSet draws the θ-sketch walk set of Algorithm 5 for the problem's
// target and horizon (walks.Draw.Generate) — the set a serving index persists
// so queries can skip regeneration. The returned set is pristine (no seeds
// applied).
func GenerateSet(p *core.Problem, theta int, seed int64, parallelism int) (*walks.Set, error) {
	if theta < 1 {
		return nil, fmt.Errorf("sketch: theta must be >= 1, got %d", theta)
	}
	gr, err := walks.NewGround(p.Sys.Candidate(p.Target))
	if err != nil {
		return nil, err
	}
	return Draw(seed, theta).Generate(p.Ctx, gr, p.Horizon, parallelism)
}

// RepairSet incrementally rebuilds a pristine sketch set after a graph
// mutation (walks.Draw.Repair). p must describe the MUTATED system; old is
// the set drawn with seed over the pre-mutation graph; touched marks the
// nodes whose in-neighborhoods or stubbornness changed. p.Ctx, when set,
// cancels the repair at shard boundaries.
func RepairSet(p *core.Problem, old *walks.Set, touched []bool, seed int64, parallelism int) (*walks.Set, walks.RepairStats, error) {
	gr, err := walks.NewGround(p.Sys.Candidate(p.Target))
	if err != nil {
		return nil, walks.RepairStats{}, err
	}
	return Draw(seed, old.NumWalks()).Repair(p.Ctx, gr, old, touched, parallelism)
}

// SelectOnSet runs the greedy selection of Algorithm 5 over a pre-generated
// sketch set (freshly generated, or a Clone of a loaded artifact):
// walks.Draw.Greedy from the empty prefix, whose contract on set, comp and
// p.Ctx applies. Given a set produced by GenerateSet with matching
// parameters, the result is byte-identical to SelectWithTheta.
func SelectOnSet(p *core.Problem, set *walks.Set, theta int, comp [][]float64, parallelism int) (*Result, error) {
	// The owner weights depend on θ alone, not on the seed the set was drawn with.
	run, err := Draw(0, theta).Greedy(p, set, comp, nil, parallelism)
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:          run.Seeds,
		EstimatedValue: run.Value,
		Theta:          theta,
		BytesUsed:      set.BytesUsed(),
		Rounds:         run.Rounds,
	}, nil
}

func selectCumulative(p *core.Problem, cfg Config) (*Result, error) {
	optLB, err := EstimateOPT(p, cfg)
	if err != nil {
		return nil, err
	}
	theta, err := stats.SketchesForCumulative(p.Sys.N(), p.K, cfg.Epsilon, cfg.L, optLB)
	if err != nil {
		return nil, err
	}
	if theta > cfg.MaxTheta {
		theta = cfg.MaxTheta
	}
	res, err := SelectWithTheta(p, theta, cfg.Seed, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	res.OPTLowerBound = optLB
	return res, nil
}

// EstimateOPT returns a lower bound on the optimal cumulative score for
// size-K seed sets, combining three certificates:
//
//  1. OPT ≥ K (the seeds themselves hold opinion 1);
//  2. OPT ≥ F(∅) by monotonicity (one exact diffusion);
//  3. a statistical test in the spirit of [3]'s Algorithm 2: for
//     x = n/2, n/4, …, K, draw enough sketches to estimate the greedy
//     score; if the estimate clears (1+ε′)·x, accept x·(a deflation).
func EstimateOPT(p *core.Problem, cfg Config) (float64, error) {
	cfg = cfg.withDefaults()
	n := p.Sys.N()
	cand := p.Sys.Candidate(p.Target)
	base, err := core.EvaluateExactCtx(p.Ctx, p.Sys, p.Target, p.Horizon, voting.Cumulative{}, nil, cfg.Parallelism)
	if err != nil {
		return 0, err
	}
	lb := math.Max(float64(p.K), base)

	epsPrime := math.Sqrt2 * cfg.Epsilon
	gr, err := walks.NewGround(cand)
	if err != nil {
		return 0, err
	}
	comp, err := core.CompetitorOpinionsCtx(p.Ctx, p.Sys, p.Target, p.Horizon, cfg.Parallelism)
	if err != nil {
		return 0, err
	}
	lnTerm := cfg.L*math.Log(float64(n)) + math.Log(math.Log2(float64(n))+1)
	for x := float64(n) / 2; x >= float64(p.K); x /= 2 {
		theta := int(math.Ceil((2 + 2*epsPrime/3) * lnTerm * float64(n) / (epsPrime * epsPrime * x)))
		if theta > cfg.MaxTheta {
			theta = cfg.MaxTheta
		}
		if theta < 1 {
			theta = 1
		}
		d := walks.Draw{Family: walks.FamilyRSOpt + uint64(int(x)), Seed: cfg.Seed, Theta: theta}
		set, err := d.Generate(p.Ctx, gr, p.Horizon, cfg.Parallelism)
		if err != nil {
			return 0, err
		}
		est, err := walks.NewEstimator(set, p.Target, cand.Init, comp, d.Weights(set), cfg.Parallelism)
		if err != nil {
			return 0, err
		}
		est.SetContext(p.Ctx)
		gr, err := est.SelectGreedy(p.K, voting.Cumulative{})
		if err != nil {
			return 0, err
		}
		if gr.Value >= (1+epsPrime)*x {
			if cand := gr.Value / (1 + epsPrime); cand > lb {
				lb = cand
			}
			break
		}
	}
	return lb, nil
}

// ThetaTrace is one point of the heuristic θ search.
type ThetaTrace struct {
	Theta      int
	ExactScore float64 // exact F of the seeds chosen at this θ
}

// HeuristicTheta performs the §VI-E doubling search: starting from
// InitialTheta, double θ until the exact score of the selected seed set
// changes by less than ConvergeTol relative between consecutive doublings,
// then report the smaller θ. The trace is the data series of Figs 13/14.
func HeuristicTheta(p *core.Problem, cfg Config) (int, []ThetaTrace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, nil, err
	}
	if err := p.Validate(); err != nil {
		return 0, nil, err
	}
	var trace []ThetaTrace
	prev := math.Inf(-1)
	theta := cfg.InitialTheta
	chosen := theta
	for {
		res, err := SelectWithTheta(p, theta, cfg.Seed, cfg.Parallelism)
		if err != nil {
			return 0, nil, err
		}
		exact, err := core.EvaluateExactCtx(p.Ctx, p.Sys, p.Target, p.Horizon, p.Score, res.Seeds, cfg.Parallelism)
		if err != nil {
			return 0, nil, err
		}
		trace = append(trace, ThetaTrace{Theta: theta, ExactScore: exact})
		if prev > 0 && math.Abs(exact-prev) <= cfg.ConvergeTol*math.Max(prev, 1) {
			chosen = theta / 2
			break
		}
		prev = exact
		if theta >= cfg.MaxTheta {
			chosen = theta
			break
		}
		theta *= 2
		if theta > cfg.MaxTheta {
			theta = cfg.MaxTheta
		}
	}
	return chosen, trace, nil
}

// PluralityThetaLHS evaluates the left-hand side of Inequality 44:
//
//	ρ^θ · [1 − 2·exp(−ε²·OPT/((8+2ε)·n) · θ)]
//
// whose non-monotone shape in θ is plotted in Fig 3.
func PluralityThetaLHS(rho, eps, opt float64, n, theta int) float64 {
	if theta <= 0 {
		return 0
	}
	inner := 1 - 2*math.Exp(-eps*eps*opt/((8+2*eps)*float64(n))*float64(theta))
	if inner < 0 {
		inner = 0
	}
	return math.Pow(rho, float64(theta)) * inner
}

// PluralityThetaRHS is the right-hand side of Inequality 44:
// 1 − C(n,k)^{-1}·n^{-l}.
func PluralityThetaRHS(n, k int, l float64) float64 {
	return 1 - math.Exp(-stats.LogChoose(n, k)-l*math.Log(float64(n)))
}

// CopelandThetaLHS evaluates the left-hand side of Inequality 48:
//
//	ρ^θ · [1 − (1 − µ²)^{θ/2}]
func CopelandThetaLHS(rho, mu float64, theta int) float64 {
	if theta <= 0 {
		return 0
	}
	return math.Pow(rho, float64(theta)) * (1 - math.Pow(1-mu*mu, float64(theta)/2))
}

// CopelandThetaRHS is the right-hand side of Inequality 48:
// 1 − C(n,k)^{-1}·n^{-l}·(r−1)^{-1}.
func CopelandThetaRHS(n, k, r int, l float64) float64 {
	return 1 - math.Exp(-stats.LogChoose(n, k)-l*math.Log(float64(n))-math.Log(float64(r-1)))
}

// SmallestAdmissibleTheta scans θ = 1..maxTheta for the first value whose
// LHS clears rhs, mirroring the Fig 3 procedure of picking θ1, the smaller
// of the two crossing points of the non-monotone LHS curve. The boolean
// reports whether any admissible θ exists.
func SmallestAdmissibleTheta(lhs func(theta int) float64, rhs float64, maxTheta int) (int, bool) {
	for theta := 1; theta <= maxTheta; theta++ {
		if lhs(theta) >= rhs {
			return theta, true
		}
	}
	return 0, false
}
