package walks_test

import (
	"math"
	"math/rand"
	"testing"

	"ovm/internal/graph"
	"ovm/internal/opinion"
	"ovm/internal/paperexample"
	"ovm/internal/sampling"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

func paperSetup(t *testing.T, lambda int, seed int64) (*opinion.System, *walks.Set) {
	t.Helper()
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Candidate(0)
	smp, err := graph.NewInEdgeSampler(c.G)
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]int32, 4)
	for i := range plan {
		plan[i] = int32(lambda)
	}
	set, err := walks.Generate(smp, c.Stub, paperexample.Horizon, plan, sampling.Stream{Seed: seed, ID: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, set
}

func TestGenerateShape(t *testing.T) {
	_, set := paperSetup(t, 10, 1)
	if set.NumWalks() != 40 {
		t.Fatalf("NumWalks = %d, want 40", set.NumWalks())
	}
	if set.NumOwners() != 4 {
		t.Fatalf("NumOwners = %d, want 4", set.NumOwners())
	}
	for i := 0; i < 4; i++ {
		if set.OwnerWalkCount(i) != 10 {
			t.Errorf("owner %d has %d walks, want 10", i, set.OwnerWalkCount(i))
		}
	}
	// Walks start at their owner and have length ≤ horizon+1.
	for i := 0; i < set.NumOwners(); i++ {
		owner := set.Owner(i)
		_ = owner
	}
	for w := 0; w < set.NumWalks(); w++ {
		seq := set.WalkNodes(w)
		if len(seq) < 1 || len(seq) > paperexample.Horizon+1 {
			t.Fatalf("walk %d has length %d", w, len(seq))
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Candidate(0)
	smp, err := graph.NewInEdgeSampler(c.G)
	if err != nil {
		t.Fatal(err)
	}
	str := sampling.Stream{Seed: 1, ID: 2}
	if _, err := walks.Generate(smp, c.Stub, 1, []int32{1}, str, 1); err == nil {
		t.Error("expected error for wrong plan length")
	}
	if _, err := walks.Generate(smp, c.Stub, -1, make([]int32, 4), str, 1); err == nil {
		t.Error("expected error for negative horizon")
	}
	if _, err := walks.Generate(smp, c.Stub, 1, []int32{-1, 0, 0, 0}, str, 1); err == nil {
		t.Error("expected error for negative plan entry")
	}
	if _, err := walks.Generate(smp, []float64{0}, 1, make([]int32, 4), str, 1); err == nil {
		t.Error("expected error for wrong stub length")
	}
	if _, err := walks.GenerateSampled(smp, c.Stub, 1, 0, str, 1); err == nil {
		t.Error("expected error for theta=0")
	}
}

func TestFullyStubbornWalksStayPut(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Candidate(0)
	smp, err := graph.NewInEdgeSampler(c.G)
	if err != nil {
		t.Fatal(err)
	}
	stub := []float64{1, 1, 1, 1}
	plan := []int32{5, 5, 5, 5}
	set, err := walks.Generate(smp, stub, 10, plan, sampling.Stream{Seed: 3, ID: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < set.NumWalks(); w++ {
		if len(set.WalkNodes(w)) != 1 {
			t.Fatalf("fully stubborn walk %d moved: %v", w, set.WalkNodes(w))
		}
	}
}

// TestUnbiasedNoSeeds is the Theorem 8 check: with enough walks the
// per-node estimates approach the exact FJ opinions at the horizon.
func TestUnbiasedNoSeeds(t *testing.T) {
	sys, set := paperSetup(t, 20000, 7)
	exact := opinion.OpinionsAt(sys.Candidate(0), paperexample.Horizon, nil)
	est := make([]float64, set.NumOwners())
	set.EstimatePerOwner(sys.Candidate(0).Init, est, 1)
	for i := 0; i < set.NumOwners(); i++ {
		v := set.Owner(i)
		if math.Abs(est[i]-exact[v]) > 0.01 {
			t.Errorf("node %d: estimate %v vs exact %v", v, est[i], exact[v])
		}
	}
}

// TestUnbiasedWithTruncation is the Theorem 9 check: post-generation
// truncation reproduces the exact seeded opinions in expectation.
func TestUnbiasedWithTruncation(t *testing.T) {
	for _, row := range paperexample.TableI {
		if len(row.Seeds) == 0 {
			continue
		}
		sys, set := paperSetup(t, 20000, 11)
		for _, s := range row.Seeds {
			set.AddSeed(s, nil)
		}
		est := make([]float64, set.NumOwners())
		set.EstimatePerOwner(sys.Candidate(0).Init, est, 1)
		for i := 0; i < set.NumOwners(); i++ {
			v := set.Owner(i)
			if math.Abs(est[i]-row.Opinions[v]) > 0.01 {
				t.Errorf("seeds %v node %d: estimate %v vs exact %v",
					paperexample.SeedLabel(row.Seeds), v, est[i], row.Opinions[v])
			}
		}
	}
}

func TestAddSeedTruncates(t *testing.T) {
	sys, set := paperSetup(t, 50, 13)
	b0 := sys.Candidate(0).Init
	set.AddSeed(2, nil)
	if !set.IsSeed(2) {
		t.Error("IsSeed(2) should be true")
	}
	for w := 0; w < set.NumWalks(); w++ {
		seq := set.WalkNodes(w)
		for i, u := range seq {
			if u == 2 && i != len(seq)-1 {
				t.Fatalf("walk %d not truncated at seed: %v", w, seq)
			}
		}
		// Walks ending at the seed must evaluate to 1.
		if seq[len(seq)-1] == 2 && set.WalkValue(w, b0) != 1 {
			t.Fatalf("walk %d ends at seed but value %v", w, set.WalkValue(w, b0))
		}
	}
	// Idempotent.
	before := set.Seeds()
	set.AddSeed(2, nil)
	if len(set.Seeds()) != len(before) {
		t.Error("AddSeed should be idempotent")
	}
}

// TestWalkValueSubmodular is Lemma 3: the truncated walk value is
// submodular in the seed set.
func TestWalkValueSubmodular(t *testing.T) {
	sys, set := paperSetup(t, 200, 17)
	b0 := sys.Candidate(0).Init
	r := rand.New(rand.NewSource(99))
	n := 4
	for trial := 0; trial < 200; trial++ {
		pMask := make([]bool, n)
		qMask := make([]bool, n)
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				pMask[v] = true
				qMask[v] = true
			} else if r.Intn(2) == 0 {
				qMask[v] = true
			}
		}
		s := int32(r.Intn(n))
		if pMask[s] || qMask[s] {
			continue
		}
		w := r.Intn(set.NumWalks())
		yP := set.ValueWithSeeds(w, b0, pMask)
		yQ := set.ValueWithSeeds(w, b0, qMask)
		pMask[s] = true
		qMask[s] = true
		yPs := set.ValueWithSeeds(w, b0, pMask)
		yQs := set.ValueWithSeeds(w, b0, qMask)
		if (yPs-yP)-(yQs-yQ) < -1e-12 {
			t.Fatalf("walk %d: submodularity violated (P gain %v < Q gain %v)", w, yPs-yP, yQs-yQ)
		}
	}
}

func TestEstimatorCumulativeMatchesExact(t *testing.T) {
	sys, set := paperSetup(t, 20000, 19)
	comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
	e, err := walks.NewEstimator(set, 0, sys.Candidate(0).Init, comp, walks.UniformOwnerWeights(set), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EstimatedScore(voting.Cumulative{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.55) > 0.03 {
		t.Errorf("estimated cumulative %v, want ≈2.55", got)
	}
	// After seeding node 0: Table I says 3.30.
	e.AddSeed(0)
	got, err = e.EstimatedScore(voting.Cumulative{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.30) > 0.03 {
		t.Errorf("estimated cumulative with seed {1} = %v, want ≈3.30", got)
	}
}

func TestEstimatorPluralityAndCopeland(t *testing.T) {
	sys, set := paperSetup(t, 20000, 23)
	comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
	e, err := walks.NewEstimator(set, 0, sys.Candidate(0).Init, comp, walks.UniformOwnerWeights(set), 1)
	if err != nil {
		t.Fatal(err)
	}
	plu, err := e.EstimatedScore(voting.Plurality{})
	if err != nil {
		t.Fatal(err)
	}
	if plu != 2 {
		t.Errorf("estimated plurality = %v, want 2", plu)
	}
	cope, err := e.EstimatedScore(voting.Copeland{})
	if err != nil {
		t.Fatal(err)
	}
	if cope != 0 {
		t.Errorf("estimated copeland = %v, want 0", cope)
	}
	// Seeding node 2 (paper user 3) makes everyone prefer c1.
	e.AddSeed(2)
	plu, err = e.EstimatedScore(voting.Plurality{})
	if err != nil {
		t.Fatal(err)
	}
	if plu != 4 {
		t.Errorf("estimated plurality after seed = %v, want 4", plu)
	}
	cope, err = e.EstimatedScore(voting.Copeland{})
	if err != nil {
		t.Fatal(err)
	}
	if cope != 1 {
		t.Errorf("estimated copeland after seed = %v, want 1", cope)
	}
}

func TestSelectGreedyMatchesTableI(t *testing.T) {
	cases := []struct {
		score voting.Score
		want  map[int32]bool // acceptable first seeds
	}{
		{voting.Cumulative{}, map[int32]bool{0: true}},
		{voting.Plurality{}, map[int32]bool{2: true}},
		{voting.Copeland{}, map[int32]bool{2: true, 3: true}},
	}
	for _, tc := range cases {
		sys, set := paperSetup(t, 5000, 29)
		comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
		e, err := walks.NewEstimator(set, 0, sys.Candidate(0).Init, comp, walks.UniformOwnerWeights(set), 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.SelectGreedy(1, tc.score)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Seeds) != 1 || !tc.want[res.Seeds[0]] {
			t.Errorf("%s: greedy picked %v, want one of %v", tc.score.Name(), res.Seeds, tc.want)
		}
	}
}

func TestSelectGreedyErrors(t *testing.T) {
	sys, set := paperSetup(t, 10, 31)
	comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
	e, err := walks.NewEstimator(set, 0, sys.Candidate(0).Init, comp, walks.UniformOwnerWeights(set), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SelectGreedy(0, voting.Cumulative{}); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := e.SelectGreedy(99, voting.Cumulative{}); err == nil {
		t.Error("expected error for k>n")
	}
}

func TestSelectGreedyFillsKSeeds(t *testing.T) {
	sys, set := paperSetup(t, 100, 37)
	comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
	e, err := walks.NewEstimator(set, 0, sys.Candidate(0).Init, comp, walks.UniformOwnerWeights(set), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SelectGreedy(4, voting.Cumulative{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 4 {
		t.Fatalf("got %d seeds, want 4 (all nodes)", len(res.Seeds))
	}
	seen := map[int32]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
	// With all nodes seeded, the estimated cumulative score must be n.
	if math.Abs(res.Value-4) > 1e-9 {
		t.Errorf("value with all nodes seeded = %v, want 4", res.Value)
	}
}

func TestGenerateSampledGrouping(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Candidate(0)
	smp, err := graph.NewInEdgeSampler(c.G)
	if err != nil {
		t.Fatal(err)
	}
	set, err := walks.GenerateSampled(smp, c.Stub, 1, 1000, sampling.Stream{Seed: 41, ID: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumWalks() != 1000 {
		t.Fatalf("NumWalks = %d, want 1000", set.NumWalks())
	}
	total := 0
	prev := int32(-1)
	for i := 0; i < set.NumOwners(); i++ {
		if set.Owner(i) <= prev {
			t.Fatal("owners not strictly ascending")
		}
		prev = set.Owner(i)
		total += set.OwnerWalkCount(i)
	}
	if total != 1000 {
		t.Fatalf("owner walk counts sum to %d, want 1000", total)
	}
}

// TestSketchEstimateCumulative checks the Equation 35 estimator
// F̂ = (n/θ)·Σ_j b̂ against the exact cumulative score.
func TestSketchEstimateCumulative(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Candidate(0)
	smp, err := graph.NewInEdgeSampler(c.G)
	if err != nil {
		t.Fatal(err)
	}
	theta := 60000
	set, err := walks.GenerateSampled(smp, c.Stub, 1, theta, sampling.Stream{Seed: 43, ID: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
	e, err := walks.NewEstimator(set, 0, c.Init, comp, walks.SketchOwnerWeights(set, theta), 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EstimatedScore(voting.Cumulative{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.55) > 0.05 {
		t.Errorf("sketch cumulative estimate %v, want ≈2.55", got)
	}
	e.AddSeed(2)
	got, err = e.EstimatedScore(voting.Cumulative{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.15) > 0.05 {
		t.Errorf("sketch cumulative with seed {3} = %v, want ≈3.15", got)
	}
}

func TestEstimateOf(t *testing.T) {
	sys, set := paperSetup(t, 100, 47)
	comp := [][]float64{nil, opinion.OpinionsAt(sys.Candidate(1), 1, nil)}
	e, err := walks.NewEstimator(set, 0, sys.Candidate(0).Init, comp, walks.UniformOwnerWeights(set), 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < 4; v++ {
		if _, ok := e.EstimateOf(v); !ok {
			t.Errorf("node %d should own walks", v)
		}
	}
	// Node 0 has no in-edges except self-loop: estimate must be exactly init.
	got, _ := e.EstimateOf(0)
	if math.Abs(got-0.40) > 1e-12 {
		t.Errorf("estimate of node 0 = %v, want 0.40", got)
	}
}

func TestBytesUsedPositive(t *testing.T) {
	_, set := paperSetup(t, 10, 53)
	if set.BytesUsed() <= 0 {
		t.Error("BytesUsed should be positive")
	}
}
