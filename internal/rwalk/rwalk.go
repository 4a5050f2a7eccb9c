// Package rwalk implements the RW method (Algorithm 4, §V): greedy seed
// selection over pre-generated t-step reverse random walks with
// post-generation truncation.
//
// Walk counts follow the paper's accuracy guarantees: Theorem 10 for the
// cumulative score (λ ≥ ln(2/(1−ρ))/(2δ²)), Theorems 11/12 for the
// plurality family and Copeland (λ_v ≥ ln(2/(1−ρ))/(2γ*_v²)), where the
// per-node opinion gap γ*_v = min_{S} min_{x≠q} |b_xv − b̂_qv[S]| is
// estimated by the greedy pilot heuristic of §V-C: α pilot walks per node
// produce initial estimates, then a simulated greedy seed trajectory tracks
// the running minimum gap. Gaps are floored (γ can be arbitrarily small in
// adversarial instances, exploding the bound — the paper assumes γ ≠ 0) and
// walk counts are capped to keep memory bounded.
//
// What is RW's lives here: the walk plan. Drawing the planned set, repairing
// it and running the greedy over it are walks.Draw's, shared with RS.
package rwalk

import (
	"fmt"
	"math"

	"ovm/internal/core"
	"ovm/internal/stats"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// maxPilotRounds caps the simulated greedy trajectory of the γ* heuristic:
// beyond a short prefix the running minimum gap stabilizes, while each extra
// round costs a full walk scan.
const maxPilotRounds = 20

// Config controls the RW method.
type Config struct {
	// Rho is the per-node estimate confidence ρ (default 0.9).
	Rho float64
	// Delta is the cumulative-score accuracy δ of Theorem 10 (default 0.1).
	Delta float64
	// GammaFloor lower-bounds the estimated per-node opinion gap γ*_v so
	// the Theorem 11/12 walk counts stay finite (default 0.05).
	GammaFloor float64
	// MaxWalksPerNode caps λ_v (default 2000).
	MaxWalksPerNode int
	// Seed drives all randomness (walk generation, pilot estimation).
	Seed int64
	// Parallelism caps the engine worker pool for walk generation and the
	// greedy scans: 0 means GOMAXPROCS, 1 disables concurrency. Seeds and
	// scores are bit-identical across Parallelism values.
	Parallelism int
}

func (c Config) withDefaults() Config {
	if c.Rho == 0 {
		c.Rho = 0.9
	}
	if c.Delta == 0 {
		c.Delta = 0.1
	}
	if c.GammaFloor == 0 {
		c.GammaFloor = 0.05
	}
	if c.MaxWalksPerNode == 0 {
		c.MaxWalksPerNode = 2000
	}
	return c
}

func (c Config) validate() error {
	if c.Rho <= 0 || c.Rho >= 1 {
		return fmt.Errorf("rwalk: rho must lie in (0,1), got %v", c.Rho)
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("rwalk: delta must lie in (0,1), got %v", c.Delta)
	}
	if c.GammaFloor <= 0 {
		return fmt.Errorf("rwalk: gamma floor must be positive, got %v", c.GammaFloor)
	}
	if c.MaxWalksPerNode < 1 {
		return fmt.Errorf("rwalk: max walks per node must be >= 1, got %d", c.MaxWalksPerNode)
	}
	return nil
}

// Result reports an RW run.
type Result struct {
	Seeds          []int32
	EstimatedValue float64 // F̂ of the selected seed set
	Gains          []float64
	TotalWalks     int
	BytesUsed      int64     // walk storage footprint (Fig 17 memory study)
	Lambda         []int32   // final per-node walk plan
	Gamma          []float64 // estimated γ*_v (nil for cumulative)
	// Rounds is the per-round work accounting of the greedy selection
	// (nil when cost accounting is disabled). Observability only: it
	// never influences seeds or scores.
	Rounds []walks.RoundCost
}

// CumulativeLambda resolves the per-node walk count the cumulative score
// uses (Theorem 10's λ, capped by MaxWalksPerNode) for this configuration.
// Index builders call it so a persisted walk artifact records exactly the
// plan a live Select would generate.
func CumulativeLambda(cfg Config) (int, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return 0, err
	}
	lam, err := stats.WalksForCumulative(cfg.Delta, cfg.Rho)
	if err != nil {
		return 0, err
	}
	if lam > cfg.MaxWalksPerNode {
		lam = cfg.MaxWalksPerNode
	}
	return lam, nil
}

// Draw is how Algorithm 4's walk set is drawn: planned starts from the RW
// family, lambda walks from every node (Theorem 10's plan, the one an index
// persists) or, at lambda 0, a per-node plan handed to GeneratePlan.
func Draw(seed int64, lambda int) walks.Draw {
	return walks.Draw{Family: walks.FamilyRW, Seed: seed, Lambda: lambda}
}

// RepairSet incrementally rebuilds a pristine RW walk set after a graph
// mutation (walks.Draw.Repair). p must describe the MUTATED system; old is
// the set drawn with seed over the pre-mutation graph; touched marks the
// nodes whose in-neighborhoods or stubbornness changed. p.Ctx, when set,
// cancels the repair at shard boundaries.
func RepairSet(p *core.Problem, old *walks.Set, touched []bool, seed int64, parallelism int) (*walks.Set, walks.RepairStats, error) {
	gr, err := walks.NewGround(p.Sys.Candidate(p.Target))
	if err != nil {
		return nil, walks.RepairStats{}, err
	}
	return Draw(seed, 0).Repair(p.Ctx, gr, old, touched, parallelism)
}

// Select runs Algorithm 4 for the given problem: the Theorem 10–12 walk plan,
// then the greedy of walks.Draw.Greedy over the set drawn with it.
func Select(p *core.Problem, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gr, err := walks.NewGround(p.Sys.Candidate(p.Target))
	if err != nil {
		return nil, err
	}
	comp, err := core.CompetitorOpinionsCtx(p.Ctx, p.Sys, p.Target, p.Horizon, cfg.Parallelism)
	if err != nil {
		return nil, err
	}

	var gammaOut []float64
	n := p.Sys.N()
	plan := make([]int32, n)
	switch p.Score.(type) {
	case voting.Cumulative:
		lam, err := CumulativeLambda(cfg)
		if err != nil {
			return nil, err
		}
		for v := range plan {
			plan[v] = int32(lam)
		}
	default:
		gamma, err := estimateGammaStar(p, cfg, gr, comp)
		if err != nil {
			return nil, err
		}
		gammaOut = gamma
		oneSided := false
		if _, ok := p.Score.(voting.Copeland); ok {
			oneSided = true
		}
		for v := range plan {
			var lam int
			var err error
			if oneSided {
				lam, err = stats.WalksForCopeland(gamma[v], cfg.Rho)
			} else {
				lam, err = stats.WalksForPlurality(gamma[v], cfg.Rho)
			}
			if err != nil {
				return nil, err
			}
			if lam > cfg.MaxWalksPerNode {
				lam = cfg.MaxWalksPerNode
			}
			plan[v] = int32(lam)
		}
	}

	d := Draw(cfg.Seed, 0)
	set, err := d.GeneratePlan(p.Ctx, gr, p.Horizon, plan, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	run, err := d.Greedy(p, set, comp, nil, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Result{
		Seeds:          run.Seeds,
		EstimatedValue: run.Value,
		Gains:          run.Gains,
		TotalWalks:     set.NumWalks(),
		BytesUsed:      set.BytesUsed(),
		Lambda:         plan,
		Gamma:          gammaOut,
		Rounds:         run.Rounds,
	}, nil
}

// estimateGammaStar implements the §V-C pilot heuristic for
// γ*_v = min_{|S|≤k} min_{x≠q} |b_xv − b̂_qv[S]|: α pilot walks per node
// (the Theorem 10 count) estimate the seedless opinions; a simulated greedy
// trajectory (cumulative gains on the pilot walks) adds up to k pilot seeds,
// and the running minimum gap per node is recorded after every addition.
func estimateGammaStar(p *core.Problem, cfg Config, gr *walks.Ground, comp [][]float64) ([]float64, error) {
	n := p.Sys.N()
	alpha, err := CumulativeLambda(cfg)
	if err != nil {
		return nil, err
	}
	d := walks.Draw{Family: walks.FamilyRWPilot, Seed: cfg.Seed, Lambda: alpha}
	set, err := d.Generate(p.Ctx, gr, p.Horizon, cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	est, err := walks.NewEstimator(set, p.Target, p.Sys.Candidate(p.Target).Init, comp, d.Weights(set), cfg.Parallelism)
	if err != nil {
		return nil, err
	}
	est.SetContext(p.Ctx)
	gamma := make([]float64, n)
	for v := range gamma {
		gamma[v] = math.Inf(1)
	}
	record := func() {
		for i := 0; i < set.NumOwners(); i++ {
			v := set.Owner(i)
			b := est.Estimate(i)
			for x := range comp {
				if x == p.Target {
					continue
				}
				if g := math.Abs(comp[x][v] - b); g < gamma[v] {
					gamma[v] = g
				}
			}
		}
	}
	record()
	for round := 0; round < min(p.K, maxPilotRounds, n); round++ {
		if _, err := est.SelectGreedy(1, voting.Cumulative{}); err != nil {
			return nil, err
		}
		record()
	}
	for v := range gamma {
		if gamma[v] < cfg.GammaFloor || math.IsInf(gamma[v], 1) {
			gamma[v] = cfg.GammaFloor
		}
	}
	return gamma, nil
}
