package core

import (
	"math"
	"math/rand"
	"testing"

	"ovm/internal/opinion"
	"ovm/internal/voting"
)

func TestFavorableSetTableI(t *testing.T) {
	sys, err := paperProblem(t, voting.Plurality{}, 1).Sys, error(nil)
	if err != nil {
		t.Fatal(err)
	}
	B, err := opinion.Matrix(sys, 1, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Without seeds at t=1, users 1 and 2 (indices 0,1) prefer c1.
	fav := FavorableSet(B, 0, 1)
	want := []bool{true, true, false, false}
	for v := range want {
		if fav[v] != want[v] {
			t.Errorf("favorable[%d] = %v, want %v", v, fav[v], want[v])
		}
	}
	// With p = 2 and r = 2 every user qualifies.
	fav2 := FavorableSet(B, 0, 2)
	for v, in := range fav2 {
		if !in {
			t.Errorf("favorable(p=2)[%d] should be true", v)
		}
	}
	// Weakly favorable coincides with plurality-favorable when r = 2.
	weak := WeaklyFavorableSet(B, 0)
	for v := range want {
		if weak[v] != want[v] {
			t.Errorf("weakly[%d] = %v, want %v", v, weak[v], want[v])
		}
	}
}

func TestCoverageValueAndGreedyCoverage(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	g := p.Sys.Candidate(0).G
	base := []bool{true, true, false, false}
	// N_{2}^(1) = {2, 3}; base adds {0,1} → 4 covered; scale 1.
	if got := CoverageValue(g, 1, base, 1, []int32{2}); got != 4 {
		t.Errorf("CoverageValue = %v, want 4", got)
	}
	// Node 0 reaches {0, 2} in 1 hop; 2 already outside base… covered = {0,1,2} → 3.
	if got := CoverageValue(g, 1, base, 1, []int32{0}); got != 3 {
		t.Errorf("CoverageValue = %v, want 3", got)
	}
	res, err := GreedyCoverage(g, 1, base, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 2 || res.Value != 4 {
		t.Errorf("greedy coverage picked %v value %v, want [2] value 4", res.Seeds, res.Value)
	}
}

func TestGreedyCoverageMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		sys := randomSystem(t, r, 10+r.Intn(10), 2)
		g := sys.Candidate(0).G
		n := g.N()
		base := make([]bool, n)
		for v := range base {
			base[v] = r.Intn(3) == 0
		}
		horizon := 1 + r.Intn(3)
		k := 1 + r.Intn(3)
		res, err := GreedyCoverage(g, horizon, base, 1, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Naive greedy: recompute CoverageValue for every candidate.
		var naive []int32
		cur := CoverageValue(g, horizon, base, 1, nil)
		for round := 0; round < k; round++ {
			best, bestGain := int32(-1), -1.0
			for v := int32(0); v < int32(n); v++ {
				skip := false
				for _, s := range naive {
					if s == v {
						skip = true
					}
				}
				if skip {
					continue
				}
				gain := CoverageValue(g, horizon, base, 1, append(append([]int32{}, naive...), v)) - cur
				if gain > bestGain {
					best, bestGain = v, gain
				}
			}
			naive = append(naive, best)
			cur += bestGain
		}
		if math.Abs(res.Value-cur) > 1e-9 {
			t.Errorf("trial %d: lazy coverage %v vs naive %v", trial, res.Value, cur)
		}
	}
}

func TestGreedyCoverageErrors(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	g := p.Sys.Candidate(0).G
	if _, err := GreedyCoverage(g, 1, make([]bool, 4), 1, 0, 1); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := GreedyCoverage(g, 1, make([]bool, 2), 1, 1, 1); err == nil {
		t.Error("expected error for wrong mask size")
	}
}

// TestBoundsSandwichF verifies LB(S) ≤ F(S) ≤ UB(S) (Theorems 5 and 6) on
// random instances and random seed sets for the positional family, and
// F(S) ≤ UB(S) (Theorem 7) for Copeland.
func TestBoundsSandwichF(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 15; trial++ {
		sys := randomSystem(t, r, 12+r.Intn(12), 2+r.Intn(3))
		horizon := 1 + r.Intn(4)
		target := r.Intn(sys.R())
		pp := 1 + r.Intn(sys.R())
		omega := make([]float64, pp)
		omega[0] = 1
		for i := 1; i < pp; i++ {
			omega[i] = omega[i-1] * (0.5 + 0.5*r.Float64())
		}
		pos := voting.Positional{P: pp, Omega: omega}

		noSeedB, err := opinion.Matrix(sys, horizon, target, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := NewPositionalBounds(noSeedB, target, pos)
		if err != nil {
			t.Fatal(err)
		}
		weak := WeaklyFavorableSet(noSeedB, target)
		n := sys.N()
		copeScale := float64(sys.R()-1) / float64(n/2+1)
		g := sys.Candidate(target).G

		var seeds []int32
		for len(seeds) < r.Intn(4) {
			seeds = append(seeds, int32(r.Intn(n)))
		}
		f, err := EvaluateExact(sys, target, horizon, pos, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		lb := restrictedCumulative{mask: bounds.Favorable, scale: bounds.OmegaP}
		B, err := opinion.Matrix(sys, horizon, target, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		lbVal := lb.Eval(B, target)
		ubVal := CoverageValue(g, horizon, bounds.Favorable, bounds.Omega1, seeds)
		if lbVal > f+1e-9 {
			t.Errorf("trial %d: LB %v > F %v", trial, lbVal, f)
		}
		if f > ubVal+1e-9 {
			t.Errorf("trial %d: F %v > UB %v", trial, f, ubVal)
		}
		// Copeland: F ≤ UB under the no-ties assumption; random real-valued
		// opinions are tie-free almost surely.
		fCope, err := EvaluateExact(sys, target, horizon, voting.Copeland{}, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		ubCope := CoverageValue(g, horizon, weak, copeScale, seeds)
		if fCope > ubCope+1e-9 {
			t.Errorf("trial %d: Copeland F %v > UB %v", trial, fCope, ubCope)
		}
	}
}

func TestSandwichPositionalOnPaperExample(t *testing.T) {
	// Example 2: for plurality with k = 1 the optimum is user 3 (index 2)
	// with score 4. Sandwich must find it.
	p := paperProblem(t, voting.Plurality{}, 1)
	res, err := SandwichPositional(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Errorf("sandwich plurality value = %v, want 4", res.Value)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 2 {
		t.Errorf("sandwich seeds = %v, want [2]", res.Seeds)
	}
	if res.Ratio <= 0 || res.Ratio > 1+1e-9 {
		t.Errorf("ratio = %v, want in (0,1]", res.Ratio)
	}
	if res.SL == nil || res.SU == nil || res.SF == nil {
		t.Error("all three candidate solutions should be present")
	}
}

func TestSandwichCopelandOnPaperExample(t *testing.T) {
	// Example 2: Copeland k = 1 optimum is 1 (users 3 or 4).
	p := paperProblem(t, voting.Copeland{}, 1)
	res, err := SandwichCopeland(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1 {
		t.Errorf("sandwich copeland value = %v, want 1", res.Value)
	}
	if len(res.Seeds) != 1 || (res.Seeds[0] != 2 && res.Seeds[0] != 3) {
		t.Errorf("sandwich seeds = %v, want [2] or [3]", res.Seeds)
	}
	if res.SL != nil {
		t.Error("Copeland sandwich has no LB solution")
	}
}

func TestSandwichScoreDispatch(t *testing.T) {
	if _, err := SandwichPositional(paperProblem(t, voting.Copeland{}, 1), 0); err == nil {
		t.Error("expected error passing Copeland to SandwichPositional")
	}
	if _, err := SandwichCopeland(paperProblem(t, voting.Plurality{}, 1), 0); err == nil {
		t.Error("expected error passing plurality to SandwichCopeland")
	}
	// PApproval routes through the positional path.
	p := paperProblem(t, voting.PApproval{P: 1}, 1)
	res, err := SandwichPositional(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 4 {
		t.Errorf("1-approval sandwich value = %v, want 4", res.Value)
	}
}

func TestSelectSeedsDMAllScores(t *testing.T) {
	for _, score := range []voting.Score{
		voting.Cumulative{}, voting.Plurality{}, voting.PApproval{P: 2},
		voting.Positional{P: 2, Omega: []float64{1, 0.5}}, voting.Copeland{},
	} {
		p := paperProblem(t, score, 1)
		seeds, val, err := SelectSeedsDM(p, 0)
		if err != nil {
			t.Fatalf("%s: %v", score.Name(), err)
		}
		if len(seeds) != 1 {
			t.Errorf("%s: got %d seeds, want 1", score.Name(), len(seeds))
		}
		exact, err := EvaluateExact(p.Sys, 0, 1, score, seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(val-exact) > 1e-9 {
			t.Errorf("%s: reported value %v != exact %v", score.Name(), val, exact)
		}
	}
}

// dmSelector is a SeedSelector backed by SelectSeedsDM.
func dmSelector(sys *opinion.System, target, horizon int, score voting.Score, parallelism int) SeedSelector {
	return func(k int) ([]int32, error) {
		p := &Problem{Sys: sys, Target: target, Horizon: horizon, K: k, Score: score}
		seeds, _, err := SelectSeedsDM(p, parallelism)
		return seeds, err
	}
}

func TestWinsAndMinSeedsToWin(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	// No seeds: c1 plurality 2, c2 plurality 2 → tie → not a win.
	ok, err := Wins(p.Sys, 0, 1, voting.Plurality{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("c1 should not win without seeds (tie)")
	}
	seeds, err := MinSeedsToWin(p.Sys, 0, 1, voting.Plurality{}, dmSelector(p.Sys, 0, 1, voting.Plurality{}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 {
		t.Errorf("k* = %d, want 1", len(seeds))
	}
	won, err := Wins(p.Sys, 0, 1, voting.Plurality{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Error("returned seed set does not win")
	}
}

func TestMinSeedsToWinAlreadyWinning(t *testing.T) {
	// Make c2 the target: with no seeds c2's cumulative is 2.825 > 2.55.
	p := paperProblem(t, voting.Cumulative{}, 1)
	seeds, err := MinSeedsToWin(p.Sys, 1, 1, voting.Cumulative{}, dmSelector(p.Sys, 1, 1, voting.Cumulative{}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 0 {
		t.Errorf("already-winning target needs 0 seeds, got %v", seeds)
	}
}

func TestMinSeedsToWinImpossible(t *testing.T) {
	// Competitor pinned at opinion 1 with full stubbornness: plurality can
	// never be strictly won by the target (ties at best).
	p := paperProblem(t, voting.Plurality{}, 1)
	c2 := p.Sys.Candidate(1)
	for i := range c2.Init {
		c2.Init[i] = 1
		c2.Stub[i] = 1
	}
	sys, err := opinion.NewSystem([]*opinion.Candidate{p.Sys.Candidate(0), c2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = MinSeedsToWin(sys, 0, 1, voting.Plurality{}, dmSelector(sys, 0, 1, voting.Plurality{}, 0))
	if err != ErrCannotWin {
		t.Errorf("expected ErrCannotWin, got %v", err)
	}
}
