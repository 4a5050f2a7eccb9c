package rwalk_test

import (
	"math"
	"math/rand"
	"testing"

	"ovm/internal/core"
	"ovm/internal/graph"
	"ovm/internal/methods"
	"ovm/internal/opinion"
	"ovm/internal/paperexample"
	"ovm/internal/rwalk"
	"ovm/internal/voting"
)

func paperProblem(t *testing.T, score voting.Score, k int) *core.Problem {
	t.Helper()
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	return &core.Problem{Sys: sys, Target: 0, Horizon: 1, K: k, Score: score}
}

func randomProblem(t *testing.T, seed int64, n, rCand, k, horizon int, score voting.Score) *core.Problem {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 5*n; i++ {
		_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), r.Float64()+0.05)
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]*opinion.Candidate, rCand)
	for q := range cands {
		init := make([]float64, n)
		stub := make([]float64, n)
		for i := range init {
			init[i] = r.Float64()
			stub[i] = r.Float64()
		}
		cands[q] = &opinion.Candidate{Name: string(rune('a' + q)), G: g, Init: init, Stub: stub}
	}
	sys, err := opinion.NewSystem(cands)
	if err != nil {
		t.Fatal(err)
	}
	return &core.Problem{Sys: sys, Target: 0, Horizon: horizon, K: k, Score: score}
}

func TestSelectCumulativePaperExample(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	res, err := rwalk.Select(p, rwalk.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Errorf("RW cumulative picked %v, want [0]", res.Seeds)
	}
	if math.Abs(res.EstimatedValue-3.30) > 0.1 {
		t.Errorf("estimated value %v, want ≈3.30", res.EstimatedValue)
	}
	if res.TotalWalks != 4*res.TotalWalks/4 || res.TotalWalks == 0 {
		t.Errorf("unexpected walk count %d", res.TotalWalks)
	}
	if res.Gamma != nil {
		t.Error("cumulative run should not estimate gamma")
	}
	if res.BytesUsed <= 0 {
		t.Error("BytesUsed should be positive")
	}
}

func TestSelectPluralityPaperExample(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	res, err := rwalk.Select(p, rwalk.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 2 {
		t.Errorf("RW plurality picked %v, want [2]", res.Seeds)
	}
	if res.Gamma == nil || len(res.Gamma) != 4 {
		t.Fatal("gamma estimates missing")
	}
	for v, g := range res.Gamma {
		if g <= 0 {
			t.Errorf("gamma[%d] = %v, want positive", v, g)
		}
	}
	if res.Lambda == nil {
		t.Fatal("lambda plan missing")
	}
}

func TestSelectCopelandPaperExample(t *testing.T) {
	p := paperProblem(t, voting.Copeland{}, 1)
	res, err := rwalk.Select(p, rwalk.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || (res.Seeds[0] != 2 && res.Seeds[0] != 3) {
		t.Errorf("RW copeland picked %v, want [2] or [3]", res.Seeds)
	}
}

func TestSelectApproachesDMQuality(t *testing.T) {
	// On random instances RW's exact score should be close to DM's.
	for _, score := range []voting.Score{voting.Cumulative{}, voting.Plurality{}} {
		p := randomProblem(t, 7, 60, 2, 3, 4, score)
		dmSeeds, _, err := core.SelectSeedsDM(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		dmVal, err := core.EvaluateExact(p.Sys, 0, p.Horizon, score, dmSeeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rwalk.Select(p, rwalk.Config{Seed: 8, MaxWalksPerNode: 500})
		if err != nil {
			t.Fatal(err)
		}
		rwVal, err := core.EvaluateExact(p.Sys, 0, p.Horizon, score, res.Seeds, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rwVal < 0.85*dmVal {
			t.Errorf("%s: RW exact value %v too far below DM %v", score.Name(), rwVal, dmVal)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	if _, err := rwalk.Select(p, rwalk.Config{Rho: 1.5}); err == nil {
		t.Error("expected error for rho > 1")
	}
	if _, err := rwalk.Select(p, rwalk.Config{Delta: -0.1}); err == nil {
		t.Error("expected error for negative delta")
	}
	if _, err := rwalk.Select(p, rwalk.Config{GammaFloor: -1}); err == nil {
		t.Error("expected error for negative gamma floor")
	}
	if _, err := rwalk.Select(p, rwalk.Config{MaxWalksPerNode: -3}); err == nil {
		t.Error("expected error for negative walk cap")
	}
	bad := *p
	bad.K = 0
	if _, err := rwalk.Select(&bad, rwalk.Config{}); err == nil {
		t.Error("expected error for invalid problem")
	}
}

func TestHigherRhoMoreWalks(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	lo, err := rwalk.Select(p, rwalk.Config{Rho: 0.75, Seed: 5, MaxWalksPerNode: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := rwalk.Select(p, rwalk.Config{Rho: 0.95, Seed: 5, MaxWalksPerNode: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if hi.TotalWalks <= lo.TotalWalks {
		t.Errorf("rho=0.95 should need more walks than rho=0.75: %d vs %d", hi.TotalWalks, lo.TotalWalks)
	}
}

func TestSelectorAdapter(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	sel, err := methods.Selector("RW", *p, methods.Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := sel(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 {
		t.Fatalf("selector returned %d seeds, want 1", len(seeds))
	}
	// MinSeedsToWin with the RW selector on the paper example: k* = 1.
	win, err := core.MinSeedsToWin(p.Sys, 0, 1, voting.Plurality{}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 1 {
		t.Errorf("RW k* = %d, want 1", len(win))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := randomProblem(t, 9, 40, 2, 2, 3, voting.Cumulative{})
	a, err := rwalk.Select(p, rwalk.Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rwalk.Select(p, rwalk.Config{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatal("non-deterministic seed count")
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("non-deterministic seeds: %v vs %v", a.Seeds, b.Seeds)
		}
	}
}
