package core

import (
	"fmt"

	"ovm/internal/voting"
)

// SandwichResult reports the outcome of Algorithm 3.
type SandwichResult struct {
	Seeds  []int32 // the returned solution S# = argmax F over {SU, SL, SF}
	Value  float64 // F(S#), exact
	Chosen string  // which candidate solution won: "UB", "LB", or "F"

	SU *GreedyResult // greedy solution on UB(·)
	SL *GreedyResult // greedy solution on LB(·); nil for Copeland (§IV-C)
	SF *GreedyResult // greedy feasible solution on F(·)

	FofSU float64 // F(SU), exact
	FofSL float64 // F(SL), exact (0 when SL == nil)
	FofSF float64 // F(SF), exact

	UBofSU float64 // UB(SU): denominator of the Fig-2 empirical ratio
	// Ratio is F(SU)/UB(SU) — the data series of Fig 2; sandwich
	// approximation guarantees at least Ratio·(1−1/e)·OPT.
	Ratio float64
}

// SandwichPositional runs Algorithm 3 for a positional-p-approval score
// (hence also plurality and p-approval): greedy on the submodular LB and UB
// surrogates of §IV-B plus the standard greedy on F itself, returning the
// best of the three under exact evaluation. parallelism follows the engine
// convention (0 = GOMAXPROCS) and never changes the result.
func SandwichPositional(p *Problem, parallelism int) (*SandwichResult, error) {
	pos, ok := p.Score.(voting.Positional)
	if !ok {
		switch s := p.Score.(type) {
		case voting.Plurality:
			pos = voting.PluralityAsPositional()
		case voting.PApproval:
			pos = voting.PApprovalAsPositional(s.P)
		default:
			return nil, fmt.Errorf("core: sandwich positional needs a plurality-family score, got %s", p.Score.Name())
		}
	}
	inner := *p
	inner.Score = pos
	if err := inner.Validate(); err != nil {
		return nil, err
	}

	// Seedless horizon matrix for the bound ingredients.
	in, err := NewInstance(p.Ctx, p.Sys, p.Target, p.Horizon, parallelism)
	if err != nil {
		return nil, err
	}
	noSeedB, err := in.matrix(p.Ctx, nil)
	if err != nil {
		return nil, err
	}

	bounds, err := NewPositionalBounds(noSeedB, p.Target, pos)
	if err != nil {
		return nil, err
	}

	// SU: greedy on UB(S) = ω[1]·|N_S^(t) ∪ V_q^(t)| (Definition 4).
	g := p.Sys.Candidate(p.Target).G
	su, err := greedyCoverage(p.Ctx, g, p.Horizon, bounds.Favorable, bounds.Omega1, p.K, parallelism)
	if err != nil {
		return nil, err
	}

	// SL: greedy (CELF; the LB is submodular by Theorem 5) on
	// LB(S) = ω[p]·Σ_{v∈V_q^(t)} b_qv^(t)[S] (Definition 3).
	lb := restrictedCumulative{mask: bounds.Favorable, scale: bounds.OmegaP}
	sl, err := GreedyCELF(p.Ctx, NewDMObjective(in, lb, parallelism), p.K)
	if err != nil {
		return nil, err
	}

	// SF: standard greedy feasible solution on F itself.
	sf, err := GreedyCELF(p.Ctx, NewDMObjective(in, pos, parallelism), p.K)
	if err != nil {
		return nil, err
	}

	return assembleSandwich(&inner, in, su, sl, sf, func(seeds []int32) float64 {
		return CoverageValue(g, p.Horizon, bounds.Favorable, bounds.Omega1, seeds)
	})
}

// SandwichCopeland runs Algorithm 3 for the Copeland score: greedy on the
// submodular UB of §IV-C (Definition 6) and the standard greedy on F; the
// paper leaves a useful LB open, so only SU and SF compete. parallelism
// follows the engine convention (0 = GOMAXPROCS).
func SandwichCopeland(p *Problem, parallelism int) (*SandwichResult, error) {
	if _, ok := p.Score.(voting.Copeland); !ok {
		return nil, fmt.Errorf("core: sandwich copeland needs the Copeland score, got %s", p.Score.Name())
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in, err := NewInstance(p.Ctx, p.Sys, p.Target, p.Horizon, parallelism)
	if err != nil {
		return nil, err
	}
	noSeedB, err := in.matrix(p.Ctx, nil)
	if err != nil {
		return nil, err
	}
	weakly := WeaklyFavorableSet(noSeedB, p.Target)
	n := p.Sys.N()
	r := p.Sys.R()
	scale := float64(r-1) / float64(n/2+1)

	g := p.Sys.Candidate(p.Target).G
	su, err := greedyCoverage(p.Ctx, g, p.Horizon, weakly, scale, p.K, parallelism)
	if err != nil {
		return nil, err
	}
	sf, err := GreedyCELF(p.Ctx, NewDMObjective(in, p.Score, parallelism), p.K)
	if err != nil {
		return nil, err
	}
	return assembleSandwich(p, in, su, nil, sf, func(seeds []int32) float64 {
		return CoverageValue(g, p.Horizon, weakly, scale, seeds)
	})
}

func assembleSandwich(p *Problem, in *Instance, su, sl, sf *GreedyResult, ubValue func([]int32) float64) (*SandwichResult, error) {
	res := &SandwichResult{SU: su, SL: sl, SF: sf}
	var err error
	if res.FofSU, err = in.Evaluate(p.Ctx, p.Score, su.Seeds); err != nil {
		return nil, err
	}
	if res.FofSF, err = in.Evaluate(p.Ctx, p.Score, sf.Seeds); err != nil {
		return nil, err
	}
	res.Seeds, res.Value, res.Chosen = su.Seeds, res.FofSU, "UB"
	if sl != nil {
		if res.FofSL, err = in.Evaluate(p.Ctx, p.Score, sl.Seeds); err != nil {
			return nil, err
		}
		if res.FofSL > res.Value {
			res.Seeds, res.Value, res.Chosen = sl.Seeds, res.FofSL, "LB"
		}
	}
	if res.FofSF > res.Value {
		res.Seeds, res.Value, res.Chosen = sf.Seeds, res.FofSF, "F"
	}
	res.UBofSU = ubValue(su.Seeds)
	if res.UBofSU > 0 {
		res.Ratio = res.FofSU / res.UBofSU
	}
	return res, nil
}

// SelectSeedsDM is the paper's DM method dispatch: CELF greedy for the
// submodular cumulative score, sandwich approximation for the plurality
// family and Copeland. parallelism sets the engine worker pool for the
// gain evaluations (0 = GOMAXPROCS, 1 = serial); seeds and values are
// bit-identical across Parallelism values.
func SelectSeedsDM(p *Problem, parallelism int) ([]int32, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	switch p.Score.(type) {
	case voting.Cumulative:
		in, err := NewInstance(p.Ctx, p.Sys, p.Target, p.Horizon, parallelism)
		if err != nil {
			return nil, 0, err
		}
		res, err := GreedyCELF(p.Ctx, NewDMObjective(in, p.Score, parallelism), p.K)
		if err != nil {
			return nil, 0, err
		}
		return res.Seeds, res.Value, nil
	case voting.Copeland:
		res, err := SandwichCopeland(p, parallelism)
		if err != nil {
			return nil, 0, err
		}
		return res.Seeds, res.Value, nil
	default:
		res, err := SandwichPositional(p, parallelism)
		if err != nil {
			return nil, 0, err
		}
		return res.Seeds, res.Value, nil
	}
}
