package sketch_test

import (
	"math/rand"
	"testing"

	"ovm/internal/core"
	"ovm/internal/graph"
	"ovm/internal/methods"
	"ovm/internal/opinion"
	"ovm/internal/paperexample"
	"ovm/internal/sketch"
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
	res, err := sketch.Select(p, sketch.Config{Seed: 1, MaxTheta: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Errorf("RS cumulative picked %v, want [0]", res.Seeds)
	}
	if res.Theta < 1 {
		t.Errorf("theta = %d, want >= 1", res.Theta)
	}
	if res.OPTLowerBound < 2.55-1e-9 { // at least F(∅)
		t.Errorf("OPT lower bound %v below F(∅)=2.55", res.OPTLowerBound)
	}
}

func TestSelectPluralityPaperExample(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	res, err := sketch.Select(p, sketch.Config{Seed: 2, InitialTheta: 512, MaxTheta: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 2 {
		t.Errorf("RS plurality picked %v, want [2]", res.Seeds)
	}
}

func TestSelectWithThetaFixed(t *testing.T) {
	p := paperProblem(t, voting.Copeland{}, 1)
	res, err := sketch.SelectWithTheta(p, 4096, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || (res.Seeds[0] != 2 && res.Seeds[0] != 3) {
		t.Errorf("RS copeland picked %v, want [2] or [3]", res.Seeds)
	}
	if res.Theta != 4096 {
		t.Errorf("theta = %d, want 4096", res.Theta)
	}
	if _, err := sketch.SelectWithTheta(p, 0, 3, 1); err == nil {
		t.Error("expected error for theta=0")
	}
}

func TestEstimateOPTBounds(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	lb, err := sketch.EstimateOPT(p, sketch.Config{Seed: 4, MaxTheta: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	// True OPT for k=1 is 3.30 (Table I). The bound must not exceed it and
	// must be at least F(∅) = 2.55.
	if lb > 3.30+0.05 {
		t.Errorf("OPT lower bound %v exceeds true OPT 3.30", lb)
	}
	if lb < 2.55-1e-9 {
		t.Errorf("OPT lower bound %v below F(∅)", lb)
	}
}

func TestHeuristicThetaTrace(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	theta, trace, err := sketch.HeuristicTheta(p, sketch.Config{Seed: 5, InitialTheta: 64, MaxTheta: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	if theta < 1 {
		t.Errorf("theta = %d", theta)
	}
	// Trace thetas double.
	for i := 1; i < len(trace); i++ {
		if trace[i].Theta <= trace[i-1].Theta {
			t.Errorf("trace thetas not increasing: %+v", trace)
		}
	}
	// Scores converge upward on this tiny instance.
	last := trace[len(trace)-1].ExactScore
	if last < 3 {
		t.Errorf("converged plurality score %v, want >= 3", last)
	}
}

func TestConfigValidation(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	if _, err := sketch.Select(p, sketch.Config{Epsilon: 1.2}); err == nil {
		t.Error("expected error for epsilon > 1")
	}
	if _, err := sketch.Select(p, sketch.Config{L: -1}); err == nil {
		t.Error("expected error for negative l")
	}
	if _, err := sketch.Select(p, sketch.Config{InitialTheta: 1 << 20, MaxTheta: 16}); err == nil {
		t.Error("expected error for max < initial theta")
	}
	bad := *p
	bad.K = 0
	if _, err := sketch.Select(&bad, sketch.Config{}); err == nil {
		t.Error("expected error for invalid problem")
	}
}

func TestSketchQualityVsDM(t *testing.T) {
	p := randomProblem(t, 11, 60, 2, 3, 4, voting.Cumulative{})
	dmSeeds, _, err := core.SelectSeedsDM(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	dmVal, err := core.EvaluateExact(p.Sys, 0, p.Horizon, voting.Cumulative{}, dmSeeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sketch.SelectWithTheta(p, 30000, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	rsVal, err := core.EvaluateExact(p.Sys, 0, p.Horizon, voting.Cumulative{}, res.Seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rsVal < 0.85*dmVal {
		t.Errorf("RS exact value %v too far below DM %v", rsVal, dmVal)
	}
}

func TestThetaCurves(t *testing.T) {
	// The Eq-44 LHS is non-monotone: rises then falls (Fig 3).
	lhs := func(theta int) float64 { return sketch.PluralityThetaLHS(0.999, 0.5, 800, 1000, theta) }
	rise := lhs(40) < lhs(200)
	fall := lhs(100000) < lhs(200)
	if !rise || !fall {
		t.Errorf("LHS should rise then fall: lhs(40)=%v lhs(200)=%v lhs(100000)=%v",
			lhs(40), lhs(200), lhs(100000))
	}
	if sketch.PluralityThetaLHS(0.9, 0.1, 500, 1000, 0) != 0 {
		t.Error("LHS at theta=0 should be 0")
	}
	// RHS in (0,1]; for realistic (n,k) it rounds to 1 in float64.
	rhs := sketch.PluralityThetaRHS(1000, 10, 1)
	if rhs <= 0 || rhs > 1 {
		t.Errorf("RHS = %v, want in (0,1]", rhs)
	}
	// Small instances keep the RHS strictly below 1.
	rhsSmall := sketch.PluralityThetaRHS(4, 1, 0.5)
	if rhsSmall <= 0 || rhsSmall >= 1 {
		t.Errorf("small-instance RHS = %v, want in (0,1)", rhsSmall)
	}
	// Copeland curves behave likewise.
	clhs := func(theta int) float64 { return sketch.CopelandThetaLHS(0.999, 0.2, theta) }
	if !(clhs(10) < clhs(200)) || !(clhs(100000) < clhs(200)) {
		t.Error("Copeland LHS should rise then fall")
	}
	crhs := sketch.CopelandThetaRHS(4, 1, 4, 0.5)
	if crhs <= 0 || crhs >= 1 {
		t.Errorf("Copeland RHS = %v, want in (0,1)", crhs)
	}
}

func TestSmallestAdmissibleTheta(t *testing.T) {
	lhs := func(theta int) float64 { return sketch.PluralityThetaLHS(0.99999, 0.5, 800, 1000, theta) }
	rhs := 0.5
	theta, ok := sketch.SmallestAdmissibleTheta(lhs, rhs, 1_000_000)
	if !ok {
		t.Fatal("expected an admissible theta")
	}
	if lhs(theta) < rhs {
		t.Errorf("theta=%d does not clear rhs", theta)
	}
	if theta > 1 && lhs(theta-1) >= rhs {
		t.Errorf("theta=%d not minimal", theta)
	}
	// Impossible case.
	if _, ok := sketch.SmallestAdmissibleTheta(lhs, 2.0, 1000); ok {
		t.Error("rhs=2 can never be cleared")
	}
}

func TestSelectorAdapter(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	sel, err := methods.Selector("RS", *p, methods.Options{RS: sketch.Config{Seed: 6, InitialTheta: 512, MaxTheta: 1 << 13}})
	if err != nil {
		t.Fatal(err)
	}
	win, err := core.MinSeedsToWin(p.Sys, 0, 1, voting.Plurality{}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 1 {
		t.Errorf("RS k* = %d, want 1", len(win))
	}
}
