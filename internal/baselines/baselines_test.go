package baselines_test

import (
	"math"
	"testing"

	"ovm/internal/baselines"
	"ovm/internal/core"
	"ovm/internal/graph"
	"ovm/internal/im"
	"ovm/internal/paperexample"
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

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9}
	got := baselines.TopK(scores, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("TopK = %v, want [1 3] (ties by index)", got)
	}
	if got := baselines.TopK(scores, 10); len(got) != 4 {
		t.Errorf("k>n should clamp: %v", got)
	}
}

func TestWeightedOutDegree(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	g := sys.Candidate(0).G
	deg := baselines.WeightedOutDegree(g)
	// Node 2 has out-edges 2→2 (0.5) and 2→3 (0.5) → 1.0;
	// node 0 has 0→0 (1) and 0→2 (0.25) → 1.25.
	if math.Abs(deg[0]-1.25) > 1e-12 {
		t.Errorf("deg[0] = %v, want 1.25", deg[0])
	}
	if math.Abs(deg[2]-1.0) > 1e-12 {
		t.Errorf("deg[2] = %v, want 1.0", deg[2])
	}
}

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	// Symmetric cycle: PageRank must be uniform.
	n := 8
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		_ = b.AddEdge(int32(v), int32((v+1)%n), 1)
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	pr := baselines.PageRank(g, 0.85, 200, 1e-12)
	for v := range pr {
		if math.Abs(pr[v]-1.0/float64(n)) > 1e-9 {
			t.Errorf("pr[%d] = %v, want uniform %v", v, pr[v], 1.0/float64(n))
		}
	}
	// Sums to 1.
	sum := 0.0
	for _, x := range pr {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PageRank sums to %v", sum)
	}
}

func TestPageRankPrefersPopular(t *testing.T) {
	// Star pointing at node 0 (raw weights — PageRank does not require
	// column-stochastic input, and normalization self-loops would dilute
	// the flow): node 0 should dominate.
	n := 10
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(int32(v), 0, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pr := baselines.PageRank(g, 0.85, 100, 1e-12)
	for v := 1; v < n; v++ {
		if pr[0] <= pr[v] {
			t.Errorf("pr[0]=%v should dominate pr[%d]=%v", pr[0], v, pr[v])
		}
	}
}

func TestReverseRWRPrefersInfluencers(t *testing.T) {
	// Node 0 influences everyone (star out of 0): the reverse walker flows
	// mass back to node 0, so it must rank first.
	n := 10
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		_ = b.AddEdge(0, int32(v), 1)
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	rwr := baselines.ReverseRWR(g, 0.85, 100, 1e-12)
	for v := 1; v < n; v++ {
		if rwr[0] <= rwr[v] {
			t.Errorf("rwr[0]=%v should dominate rwr[%d]=%v", rwr[0], v, rwr[v])
		}
	}
	// Mass conservation.
	sum := 0.0
	for _, x := range rwr {
		sum += x
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("RWR sums to %v", sum)
	}
}

func TestSelectAllMethods(t *testing.T) {
	for _, m := range []baselines.Method{baselines.MethodIC, baselines.MethodLT, baselines.MethodGEDT, baselines.MethodPR, baselines.MethodRWR, baselines.MethodDC} {
		p := paperProblem(t, voting.Plurality{}, 2)
		seeds, err := baselines.Select(m, p, baselines.Config{IMM: im.IMMConfig{Seed: 1, MaxSets: 1 << 14}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(seeds) != 2 {
			t.Errorf("%s: got %d seeds, want 2", m, len(seeds))
		}
		seen := map[int32]bool{}
		for _, s := range seeds {
			if s < 0 || s >= 4 {
				t.Errorf("%s: seed %d out of range", m, s)
			}
			if seen[s] {
				t.Errorf("%s: duplicate seed %d", m, s)
			}
			seen[s] = true
		}
	}
}

func TestSelectUnknownMethod(t *testing.T) {
	p := paperProblem(t, voting.Plurality{}, 1)
	if _, err := baselines.Select(baselines.Method("nope"), p, baselines.Config{}); err == nil {
		t.Error("expected error for unknown method")
	}
}

func TestGEDTMatchesCumulativeDM(t *testing.T) {
	// GED-T ignores the target score and maximizes cumulative: on the paper
	// example with k=1 it must pick node 0 even under plurality.
	p := paperProblem(t, voting.Plurality{}, 1)
	seeds, err := baselines.Select(baselines.MethodGEDT, p, baselines.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 1 || seeds[0] != 0 {
		t.Errorf("GED-T picked %v, want [0] (cumulative optimum)", seeds)
	}
}
