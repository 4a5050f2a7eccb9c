package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ovm/internal/graph"
	"ovm/internal/opinion"
	"ovm/internal/paperexample"
	"ovm/internal/voting"
)

func paperProblem(t *testing.T, score voting.Score, k int) *Problem {
	t.Helper()
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{Sys: sys, Target: 0, Horizon: 1, K: k, Score: score}
}

// dmObjective builds a fresh DM objective for p's instance at the given
// engine parallelism.
func dmObjective(t *testing.T, p *Problem, parallelism int) *DMObjective {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(nil, p.Sys, p.Target, p.Horizon, parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return NewDMObjective(in, p.Score, parallelism)
}

func randomSystem(t *testing.T, r *rand.Rand, n, rCand int) *opinion.System {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
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
	return sys
}

func TestProblemValidate(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Target = 7
	if err := bad.Validate(); err == nil {
		t.Error("expected error for bad target")
	}
	bad = *p
	bad.Horizon = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative horizon")
	}
	bad = *p
	bad.K = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for k=0")
	}
	bad = *p
	bad.K = 99
	if err := bad.Validate(); err == nil {
		t.Error("expected error for k>n")
	}
	bad = *p
	bad.Score = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for nil score")
	}
	bad = *p
	bad.Score = voting.Positional{P: 5, Omega: []float64{1, 1, 1, 1, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("expected error for P > r via score.Validate")
	}
	bad = *p
	bad.Sys = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected error for nil system")
	}
}

func TestGreedyPicksTableIBestCumulative(t *testing.T) {
	// Table I: seeding user 1 (index 0) maximizes the cumulative score (3.30).
	p := paperProblem(t, voting.Cumulative{}, 1)
	obj := dmObjective(t, p, 1)
	res, err := Greedy(nil, obj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 1 || res.Seeds[0] != 0 {
		t.Errorf("greedy picked %v, want [0]", res.Seeds)
	}
	if math.Abs(res.Value-3.30) > 1e-9 {
		t.Errorf("value = %v, want 3.30", res.Value)
	}
}

func TestGreedyCELFMatchesGreedyOnCumulative(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		sys := randomSystem(t, r, 12+r.Intn(10), 2)
		p := &Problem{Sys: sys, Target: 0, Horizon: 3, K: 3, Score: voting.Cumulative{}}
		o1 := dmObjective(t, p, 1)
		o2 := dmObjective(t, p, 1)
		plain, err := Greedy(nil, o1, p.K)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := GreedyCELF(nil, o2, p.K)
		if err != nil {
			t.Fatal(err)
		}
		// CELF is exact for submodular objectives: same value (seed sets can
		// differ only under ties).
		if math.Abs(plain.Value-lazy.Value) > 1e-9 {
			t.Errorf("trial %d: plain %v vs CELF %v", trial, plain.Value, lazy.Value)
		}
		if lazy.Evaluations > plain.Evaluations {
			t.Errorf("trial %d: CELF used more evaluations (%d) than plain greedy (%d)",
				trial, lazy.Evaluations, plain.Evaluations)
		}
	}
}

func TestGreedyApproximationVsBruteForce(t *testing.T) {
	// On tiny instances, greedy on the (submodular) cumulative score must be
	// within (1 − 1/e) of the exhaustive optimum.
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		sys := randomSystem(t, r, 8, 2)
		p := &Problem{Sys: sys, Target: 0, Horizon: 2, K: 2, Score: voting.Cumulative{}}
		obj := dmObjective(t, p, 1)
		res, err := GreedyCELF(nil, obj, p.K)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over all pairs.
		best := 0.0
		n := sys.N()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v, err := EvaluateExact(sys, 0, 2, voting.Cumulative{}, []int32{int32(i), int32(j)}, 1)
				if err != nil {
					t.Fatal(err)
				}
				if v > best {
					best = v
				}
			}
		}
		if res.Value < (1-1/math.E)*best-1e-9 {
			t.Errorf("trial %d: greedy %v below (1-1/e)·OPT = %v", trial, res.Value, (1-1/math.E)*best)
		}
	}
}

func TestGreedyErrors(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 1)
	obj := dmObjective(t, p, 1)
	if _, err := Greedy(nil, obj, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := Greedy(nil, obj, 99); err == nil {
		t.Error("expected error for k>n")
	}
	if _, err := GreedyCELF(nil, obj, 0); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := GreedyCELF(nil, obj, 99); err == nil {
		t.Error("expected error for k>n")
	}
}

func TestDMObjectiveCountsEvaluations(t *testing.T) {
	p := paperProblem(t, voting.Cumulative{}, 2)
	for _, par := range []int{1, 4} {
		obj := dmObjective(t, p, par)
		if obj.Evaluations() != 1 {
			t.Errorf("P=%d: evaluations after construction = %d, want 1 (the empty set)", par, obj.Evaluations())
		}
		cands := []int32{0, 2, 3}
		gains := make([]float64, len(cands))
		if err := obj.Gains(nil, cands, gains); err != nil {
			t.Fatal(err)
		}
		base, err := EvaluateExact(p.Sys, p.Target, p.Horizon, p.Score, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cands {
			want, err := EvaluateExact(p.Sys, p.Target, p.Horizon, p.Score, []int32{v}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if gains[i] != want-base {
				t.Errorf("P=%d: gain of %d = %v, want %v", par, v, gains[i], want-base)
			}
		}
		obj.Add(cands[0], gains[0])
		if err := obj.Gains(nil, cands[1:2], gains[:1]); err != nil {
			t.Fatal(err)
		}
		if obj.Evaluations() != 5 {
			t.Errorf("P=%d: evaluations = %d, want 5", par, obj.Evaluations())
		}
	}
}

func TestGreedySeedsAreDistinct(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	sys := randomSystem(t, r, 15, 2)
	p := &Problem{Sys: sys, Target: 0, Horizon: 2, K: 5, Score: voting.Cumulative{}}
	obj := dmObjective(t, p, 1)
	res, err := GreedyCELF(nil, obj, p.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 5 {
		t.Fatalf("got %d seeds, want 5", len(res.Seeds))
	}
	s := append([]int32{}, res.Seeds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			t.Fatalf("duplicate seed %d", s[i])
		}
	}
	// Gains must be non-increasing for a submodular objective.
	for i := 1; i < len(res.Gains); i++ {
		if res.Gains[i] > res.Gains[i-1]+1e-9 {
			t.Errorf("gains not non-increasing: %v", res.Gains)
		}
	}
}
