package opinion_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ovm/internal/graph"
	"ovm/internal/opinion"
	"ovm/internal/paperexample"
)

func randomCandidate(t *testing.T, r *rand.Rand, n int) *opinion.Candidate {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < 5*n; i++ {
		_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), r.Float64()+0.01)
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	init := make([]float64, n)
	stub := make([]float64, n)
	for i := range init {
		init[i] = r.Float64()
		stub[i] = r.Float64()
	}
	return &opinion.Candidate{Name: "rand", G: g, Init: init, Stub: stub}
}

// TestTableIExact reproduces every row of the paper's Table I exactly
// (within display rounding of 1e-9 on the underlying exact values).
func TestTableIExact(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	// Competitor opinions at horizon, no seeds.
	c2 := opinion.OpinionsAt(sys.Candidate(1), paperexample.Horizon, nil)
	for v := 0; v < 4; v++ {
		if math.Abs(c2[v]-paperexample.C2AtHorizon[v]) > 1e-12 {
			t.Errorf("c2 opinion of user %d = %v, want %v", v+1, c2[v], paperexample.C2AtHorizon[v])
		}
	}
	for _, row := range paperexample.TableI {
		got := opinion.OpinionsAt(sys.Candidate(0), paperexample.Horizon, row.Seeds)
		for v := 0; v < 4; v++ {
			if math.Abs(got[v]-row.Opinions[v]) > 1e-12 {
				t.Errorf("seeds %v: user %d opinion = %v, want %v",
					paperexample.SeedLabel(row.Seeds), v+1, got[v], row.Opinions[v])
			}
		}
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	good := sys.Candidate(0)

	c := *good
	c.Init = []float64{0.5} // wrong length
	if err := c.Validate(); err == nil {
		t.Error("expected length error for Init")
	}
	c = *good
	c.Stub = []float64{0.5}
	if err := c.Validate(); err == nil {
		t.Error("expected length error for Stub")
	}
	c = *good
	c.Init = []float64{0.4, 0.8, 1.5, 0.9} // out of range
	if err := c.Validate(); err == nil {
		t.Error("expected range error for Init")
	}
	c = *good
	c.Stub = []float64{0, 0, -0.1, 0}
	if err := c.Validate(); err == nil {
		t.Error("expected range error for Stub")
	}
	c = *good
	c.Init = []float64{0.4, math.NaN(), 0.6, 0.9}
	if err := c.Validate(); err == nil {
		t.Error("expected range error for a NaN Init")
	}
	c = *good
	c.Stub = []float64{0, 0, math.NaN(), 0}
	if err := c.Validate(); err == nil {
		t.Error("expected range error for a NaN Stub")
	}
	c = *good
	c.G = nil
	if err := c.Validate(); err == nil {
		t.Error("expected error for nil graph")
	}
	// Non-stochastic graph.
	b := graph.NewBuilder(4)
	_ = b.AddEdge(0, 1, 0.2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c = *good
	c.G = g
	if err := c.Validate(); err == nil {
		t.Error("expected error for non-stochastic graph")
	}
	// NewSystem checks each distinct graph, shared or not, once.
	if _, err := opinion.NewSystem([]*opinion.Candidate{good, good, &c}); err == nil {
		t.Error("NewSystem accepted a third candidate over a non-stochastic graph")
	}
	if _, err := opinion.NewSystem([]*opinion.Candidate{good, good}); err != nil {
		t.Errorf("NewSystem refused two candidates sharing a graph: %v", err)
	}
	// Derive checks every part it replaces.
	nan := *good
	nan.Stub = []float64{0, math.NaN(), 0, 0}
	for name, cands := range map[string][]*opinion.Candidate{
		"a replaced graph": {sys.Candidate(0), &c},
		"a replaced Stub":  {&nan, sys.Candidate(1)},
		"one candidate":    {sys.Candidate(0)},
	} {
		if _, err := sys.Derive(cands); err == nil {
			t.Errorf("Derive accepted %s", name)
		}
	}
	edited := *sys.Candidate(1)
	edited.Init = []float64{0.1, 0.2, 0.3, 0.4}
	if _, err := sys.Derive([]*opinion.Candidate{sys.Candidate(0), &edited}); err != nil {
		t.Errorf("Derive refused a valid replaced Init: %v", err)
	}
}

func TestNewSystemRejectsSingleCandidate(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := opinion.NewSystem(sys.Candidates()[:1]); err == nil {
		t.Error("expected error for r=1")
	}
}

func TestOpinionsStayInRange(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCandidate(t, r, 10+r.Intn(30))
		horizon := r.Intn(15)
		var seeds []int32
		for i := 0; i < r.Intn(4); i++ {
			seeds = append(seeds, int32(r.Intn(c.G.N())))
		}
		res := opinion.OpinionsAt(c, horizon, seeds)
		for _, b := range res {
			if b < -1e-12 || b > 1+1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestHorizonZeroReturnsSeededInit(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	got := opinion.OpinionsAt(sys.Candidate(0), 0, []int32{2})
	want := []float64{0.40, 0.80, 1.00, 0.90}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-15 {
			t.Errorf("t=0 opinion[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestSeedsStayPinnedForever(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	c := randomCandidate(t, r, 25)
	seeds := []int32{3, 17}
	for _, horizon := range []int{1, 5, 20} {
		res := opinion.OpinionsAt(c, horizon, seeds)
		for _, s := range seeds {
			if math.Abs(res[s]-1) > 1e-12 {
				t.Errorf("t=%d: seed %d opinion %v, want 1", horizon, s, res[s])
			}
		}
	}
}

func TestFullyStubbornKeepInitial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	c := randomCandidate(t, r, 20)
	for i := range c.Stub {
		c.Stub[i] = 1
	}
	res := opinion.OpinionsAt(c, 10, nil)
	for v := range res {
		if math.Abs(res[v]-c.Init[v]) > 1e-12 {
			t.Errorf("fully stubborn node %d moved from %v to %v", v, c.Init[v], res[v])
		}
	}
}

// TestAgainstDenseReference cross-checks the CSR engine against a naive
// dense matrix implementation on random instances.
func TestAgainstDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(12)
		c := randomCandidate(t, r, n)
		horizon := r.Intn(8)
		var seeds []int32
		if r.Intn(2) == 1 {
			seeds = append(seeds, int32(r.Intn(n)))
		}
		// Dense W: W[u][v] = weight of edge u→v.
		W := make([][]float64, n)
		for u := range W {
			W[u] = make([]float64, n)
		}
		for v := int32(0); v < int32(n); v++ {
			src, w := c.G.InNeighbors(v)
			for i := range src {
				W[src[i]][v] += w[i]
			}
		}
		init, stub := opinion.ApplySeeds(c.Init, c.Stub, seeds)
		cur := append([]float64(nil), init...)
		for s := 0; s < horizon; s++ {
			next := make([]float64, n)
			for v := 0; v < n; v++ {
				acc := 0.0
				for u := 0; u < n; u++ {
					acc += W[u][v] * cur[u]
				}
				next[v] = (1-stub[v])*acc + stub[v]*init[v]
			}
			cur = next
		}
		got := opinion.OpinionsAt(c, horizon, seeds)
		for v := 0; v < n; v++ {
			if math.Abs(got[v]-cur[v]) > 1e-9 {
				t.Fatalf("trial %d: node %d: CSR %v vs dense %v", trial, v, got[v], cur[v])
			}
		}
	}
}

// TestMonotoneInSeeds checks the §III-B fact that opinions are
// non-decreasing w.r.t. seed-set inclusion.
func TestMonotoneInSeeds(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(20)
		c := randomCandidate(t, r, n)
		horizon := 1 + r.Intn(8)
		s1 := []int32{int32(r.Intn(n))}
		s2 := append([]int32{int32(r.Intn(n))}, s1...)
		base := opinion.OpinionsAt(c, horizon, s1)
		more := opinion.OpinionsAt(c, horizon, s2)
		for v := range base {
			if more[v] < base[v]-1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// TestSubmodularOpinions verifies Theorem 3 on random instances:
// b_qi^(t)[X∪{s}] − b_qi^(t)[X] ≥ b_qi^(t)[Y∪{s}] − b_qi^(t)[Y] for X ⊆ Y.
func TestSubmodularOpinions(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(15)
		c := randomCandidate(t, r, n)
		horizon := 1 + r.Intn(6)
		x := []int32{int32(r.Intn(n))}
		y := append([]int32{int32(r.Intn(n))}, x...)
		s := int32(r.Intn(n))
		bx := opinion.OpinionsAt(c, horizon, x)
		bxs := opinion.OpinionsAt(c, horizon, append([]int32{s}, x...))
		by := opinion.OpinionsAt(c, horizon, y)
		bys := opinion.OpinionsAt(c, horizon, append([]int32{s}, y...))
		for v := 0; v < n; v++ {
			if (bxs[v] - bx[v]) < (bys[v]-by[v])-1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestDeGrootConsensusOnCompleteGraph(t *testing.T) {
	// On a strongly connected aperiodic graph with D=0, DeGroot converges;
	// with uniform weights the consensus is the average of initials.
	n := 6
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			_ = b.AddEdge(int32(u), int32(v), 1)
		}
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	init := []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	c := &opinion.Candidate{Name: "c", G: g, Init: init, Stub: make([]float64, n)}
	res := opinion.OpinionsAt(c, 50, nil)
	want := 0.5
	for v := range res {
		if math.Abs(res[v]-want) > 1e-9 {
			t.Errorf("node %d = %v, want consensus %v", v, res[v], want)
		}
	}
}

func TestTrajectoryAndChurn(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	c := sys.Candidate(0)
	traj, err := opinion.Trajectory(context.Background(), c, 3, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 4 {
		t.Fatalf("trajectory length %d, want 4", len(traj))
	}
	// t=0 equals Init, t=1 equals Table I row 0.
	for v := 0; v < 4; v++ {
		if traj[0][v] != c.Init[v] {
			t.Errorf("trajectory[0][%d] = %v, want Init", v, traj[0][v])
		}
		if math.Abs(traj[1][v]-paperexample.TableI[0].Opinions[v]) > 1e-12 {
			t.Errorf("trajectory[1][%d] = %v, want Table I", v, traj[1][v])
		}
	}
	churn := opinion.ChurnFractions(c, nil, 3, 1)
	if len(churn) != 3 {
		t.Fatalf("churn length %d, want 3", len(churn))
	}
	// At step 1, users 3 and 4 change (user 3: 0.60→0.60 unchanged!
	// Actually 0.60→0.60: b3' = ½·0.60 + ¼·(0.40+0.80) = 0.60; user 4:
	// 0.90→0.75 changes). So churn[0] = 1/4.
	if math.Abs(churn[0]-0.25) > 1e-12 {
		t.Errorf("churn[0] = %v, want 0.25", churn[0])
	}
	// Churn must eventually decay on this DAG-like instance.
	if churn[2] > churn[0]+1e-12 {
		t.Errorf("churn should decay: %v", churn)
	}
}

func TestMatrix(t *testing.T) {
	sys, err := paperexample.New()
	if err != nil {
		t.Fatal(err)
	}
	B, err := opinion.Matrix(sys, 1, 0, []int32{2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(B) != 2 {
		t.Fatalf("matrix rows = %d, want 2", len(B))
	}
	// Row 0 = seeded c1 (Table I row for {3}); row 1 = unseeded c2.
	want := paperexample.TableI[3].Opinions
	for v := 0; v < 4; v++ {
		if math.Abs(B[0][v]-want[v]) > 1e-12 {
			t.Errorf("B[0][%d] = %v, want %v", v, B[0][v], want[v])
		}
		if math.Abs(B[1][v]-paperexample.C2AtHorizon[v]) > 1e-12 {
			t.Errorf("B[1][%d] = %v, want %v", v, B[1][v], paperexample.C2AtHorizon[v])
		}
	}
	if _, err := opinion.Matrix(sys, 1, 5, nil, 1); err == nil {
		t.Error("expected error for bad target")
	}
}

func TestApplySeedsDoesNotMutate(t *testing.T) {
	init := []float64{0.1, 0.2}
	stub := []float64{0.3, 0.4}
	ei, es := opinion.ApplySeeds(init, stub, []int32{1})
	if init[1] != 0.2 || stub[1] != 0.4 {
		t.Error("ApplySeeds mutated its inputs")
	}
	if ei[1] != 1 || es[1] != 1 {
		t.Error("ApplySeeds did not pin the seed")
	}
	if ei[0] != 0.1 || es[0] != 0.3 {
		t.Error("ApplySeeds corrupted non-seed entries")
	}
}

// TestDiffuseNodeShardedEqualsSerialStep is the kernel's determinism
// contract: Diffuse, whose steps are cut into node-range chunks over the
// engine pool, equals a serial loop over Step bit for bit at P = 1, 4 and
// GOMAXPROCS — on a graph spanning several chunks and on one smaller than a
// chunk — and a done context stops it with ctx.Err().
func TestDiffuseNodeShardedEqualsSerialStep(t *testing.T) {
	const horizon = 7
	for _, n := range []int{300, 7000} { // chunks hold at least 2048 nodes
		c := randomCandidate(t, rand.New(rand.NewSource(int64(n))), n)
		seeds := []int32{0, int32(n / 2), int32(n - 1)}
		init, stub := opinion.ApplySeeds(c.Init, c.Stub, seeds)
		want := append([]float64(nil), init...)
		next := make([]float64, n)
		for s := 0; s < horizon; s++ {
			opinion.Step(c.G, want, next, init, stub)
			want, next = next, want
		}
		for _, par := range []int{1, 4, 0} {
			got, err := opinion.Diffuse(context.Background(), c, horizon, seeds, par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d P=%d: node-sharded diffusion differs from the serial Step loop", n, par)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := opinion.Diffuse(ctx, c, horizon, seeds, par); !errors.Is(err, context.Canceled) {
				t.Errorf("n=%d P=%d: cancelled diffusion returned %v, want context.Canceled", n, par, err)
			}
		}
	}
}
