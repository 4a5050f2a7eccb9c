package walks_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ovm/internal/core"
	"ovm/internal/graph"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/sampling"
	"ovm/internal/voting"
	"ovm/internal/walks"
	"ovm/internal/walks/walksref"
)

// equivWorld builds a random multi-candidate system plus a walk-set factory
// (RW-style per-node plans or RS-style sampled sketches) so identical
// copies can be re-created for side-by-side selection runs.
type equivWorld struct {
	sys     *opinion.System
	n       int
	horizon int
	target  int
	init    []float64
	comp    [][]float64
	makeSet func() *walks.Set
	weights func(*walks.Set) []float64
}

func newEquivWorld(t *testing.T, seed int64, n int, sketch bool) *equivWorld {
	t.Helper()
	return newEquivWorldSized(t, seed, n, 20, 4*n, sketch)
}

// newShardedWorld is a world whose walk set spans three scan shards (4 800
// walks; every other world here has fewer than 2 048, hence one shard), so
// the shard-by-shard fold of the cumulative gain is compared too.
func newShardedWorld(t *testing.T, sketch bool) *equivWorld {
	t.Helper()
	w := newEquivWorldSized(t, 41, 60, 80, 4800, sketch)
	if shards := len(walks.ScanShardBounds(w.n, w.makeSet().NumWalks())) - 1; shards < 3 {
		t.Fatalf("sharded world has %d scan shards, want at least 3", shards)
	}
	return w
}

// newEquivWorldSized is newEquivWorld with lambda walks per node (RW) or
// theta sketches (RS).
func newEquivWorldSized(t *testing.T, seed int64, n, lambda, theta int, sketch bool) *equivWorld {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), r.Float64()+0.05)
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	rCand := 2 + r.Intn(2)
	inits := make([][]float64, rCand)
	stubs := make([][]float64, rCand)
	for q := 0; q < rCand; q++ {
		inits[q] = make([]float64, n)
		stubs[q] = make([]float64, n)
		for v := 0; v < n; v++ {
			inits[q][v] = r.Float64()
			stubs[q][v] = 0.05 + 0.9*r.Float64()
		}
	}
	horizon := 3 + r.Intn(4)
	cands := make([]*opinion.Candidate, rCand)
	for q := 0; q < rCand; q++ {
		cands[q] = &opinion.Candidate{Name: string(rune('a' + q)), G: g, Init: inits[q], Stub: stubs[q]}
	}
	sys, err := opinion.NewSystem(cands)
	if err != nil {
		t.Fatal(err)
	}
	comp := make([][]float64, rCand)
	for q := 1; q < rCand; q++ {
		comp[q] = opinion.OpinionsAt(sys.Candidate(q), horizon, nil)
	}
	w := &equivWorld{sys: sys, n: n, horizon: horizon, target: 0, init: inits[0], comp: comp}
	smp, err := graph.NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	if sketch {
		w.makeSet = func() *walks.Set {
			set, err := walks.GenerateSampled(smp, stubs[0], horizon, theta, sampling.Stream{Seed: seed, ID: 88}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return set
		}
		w.weights = func(set *walks.Set) []float64 { return walks.SketchOwnerWeights(set, theta) }
	} else {
		plan := make([]int32, n)
		for i := range plan {
			plan[i] = int32(lambda)
		}
		w.makeSet = func() *walks.Set {
			set, err := walks.Generate(smp, stubs[0], horizon, plan, sampling.Stream{Seed: seed, ID: 77}, 1)
			if err != nil {
				t.Fatal(err)
			}
			return set
		}
		w.weights = func(set *walks.Set) []float64 { return walks.UniformOwnerWeights(set) }
	}
	return w
}

func (w *equivWorld) estimator(t *testing.T, parallelism int) *walks.Estimator {
	t.Helper()
	set := w.makeSet()
	est, err := walks.NewEstimator(set, w.target, w.init, w.comp, w.weights(set), parallelism)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// oracle builds the from-the-definition reference over a fresh copy of the
// world's walk set.
func (w *equivWorld) oracle() *walksref.Oracle {
	set := w.makeSet()
	return walksref.New(set, w.target, w.init, w.comp, w.weights(set))
}

// scorer is F̂ of one side of a comparison, for every score kind.
type scorer func(voting.Score) float64

func estScorer(t *testing.T, est *walks.Estimator) scorer {
	return func(sc voting.Score) float64 {
		t.Helper()
		v, err := est.EstimatedScore(sc)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

var equivScores = []voting.Score{
	voting.Cumulative{},
	voting.Plurality{},
	voting.PApproval{P: 2},
	voting.Positional{P: 2, Omega: []float64{1, 0.5}},
	voting.Copeland{},
}

// requireSameRun asserts bit-identical selection output: seeds, per-round
// gains, final estimated value, and the post-selection estimated score of
// every score kind (the estimates and ± counters feed future queries too).
func requireSameRun(t *testing.T, label string, ref, got scorer,
	refSeeds, gotSeeds []int32, refGains, gotGains []float64, refValue, gotValue float64) {
	t.Helper()
	if len(refSeeds) != len(gotSeeds) {
		t.Fatalf("%s: seed count %d != %d", label, len(gotSeeds), len(refSeeds))
	}
	for i := range refSeeds {
		if refSeeds[i] != gotSeeds[i] {
			t.Fatalf("%s: seed[%d] = %d, reference %d", label, i, gotSeeds[i], refSeeds[i])
		}
		if math.Float64bits(refGains[i]) != math.Float64bits(gotGains[i]) {
			t.Fatalf("%s: gain[%d] = %v, reference %v (not bit-identical)", label, i, gotGains[i], refGains[i])
		}
	}
	if math.Float64bits(refValue) != math.Float64bits(gotValue) {
		t.Fatalf("%s: value %v, reference %v", label, gotValue, refValue)
	}
	for _, sc := range equivScores {
		if rv, gv := ref(sc), got(sc); rv != gv {
			t.Fatalf("%s: post-selection %s score %v, reference %v", label, sc.Name(), gv, rv)
		}
	}
}

// TestIncrementalMatchesFullScan is the equivalence gate of the selection
// loop: for every score kind, both owner-weight schemes (RW uniform, RS
// sketch), and parallelism 1/4/0, the incremental postings-index selection
// must produce bit-identical seeds, gains, and scores to the full scan
// written from the definition (walksref) — on the single-shard worlds and on
// one whose cumulative gains fold over three scan shards. The runs with cost
// accounting switched off must match the same reference: a counter or a
// RoundCost field never feeds a gain, and nothing a gain needs sits behind
// obs.CostEnabled.
func TestIncrementalMatchesFullScan(t *testing.T) {
	defer obs.SetCostAccounting(true)
	var worlds []*equivWorld
	for _, sketch := range []bool{false, true} {
		for _, seed := range []int64{3, 17, 99} {
			worlds = append(worlds, newEquivWorld(t, seed, 40, sketch))
		}
		worlds = append(worlds, newShardedWorld(t, sketch))
	}
	for wi, world := range worlds {
		for _, score := range equivScores {
			ref := world.oracle()
			refRes := ref.SelectGreedy(8, score)
			for _, run := range []struct {
				par        int
				accounting bool
			}{{1, true}, {4, true}, {0, true}, {1, false}, {4, false}} {
				obs.SetCostAccounting(run.accounting)
				est := world.estimator(t, run.par)
				res, err := est.SelectGreedy(8, score)
				if err != nil {
					t.Fatal(err)
				}
				if got := len(est.RoundCosts()); run.accounting != (got > 0) {
					t.Fatalf("accounting=%v left %d round-cost records", run.accounting, got)
				}
				label := fmt.Sprintf("world %d/%s/P%d/accounting=%v", wi, score.Name(), run.par, run.accounting)
				requireSameRun(t, label, ref.EstimatedScore, estScorer(t, est),
					refRes.Seeds, res.Seeds, refRes.Gains, res.Gains, refRes.Value, res.Value)
			}
		}
	}
}

// TestIncrementalCachesAcrossRuns exercises the cross-run cache reuse the
// γ* pilot heuristic depends on (repeated SelectGreedy calls on one
// estimator), including switching score kinds between runs, against the
// oracle replaying the same call sequence.
func TestIncrementalCachesAcrossRuns(t *testing.T) {
	sequences := [][]voting.Score{
		{voting.Cumulative{}, voting.Cumulative{}, voting.Cumulative{}},
		{voting.Cumulative{}, voting.Plurality{}, voting.Copeland{}},
		{voting.Plurality{}, voting.PApproval{P: 2}, voting.Cumulative{}},
	}
	for _, seq := range sequences {
		world := newEquivWorld(t, 7, 30, false)
		ref := world.oracle()
		est := world.estimator(t, 4)
		for _, score := range seq {
			refRes := ref.SelectGreedy(2, score)
			res, err := est.SelectGreedy(2, score)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, score.Name(), ref.EstimatedScore, estScorer(t, est),
				refRes.Seeds, res.Seeds, refRes.Gains, res.Gains, refRes.Value, res.Value)
		}
	}
}

// TestPairwiseStateDoesNotLeakAcrossRuns guards the lazily refolded
// Copeland counters: a plurality run leaves them stale and a Copeland run
// leaves them fresh, so one estimator running plurality then Copeland (and
// the reverse) must match two estimators that share nothing — the second one
// built fresh on a set carrying only the first run's seeds.
func TestPairwiseStateDoesNotLeakAcrossRuns(t *testing.T) {
	orders := [][2]voting.Score{
		{voting.Plurality{}, voting.Copeland{}},
		{voting.Copeland{}, voting.Plurality{}},
	}
	for _, sketch := range []bool{false, true} {
		world := newEquivWorld(t, 17, 40, sketch)
		for _, order := range orders {
			for _, par := range []int{1, 4} {
				shared := world.estimator(t, par)
				first, err := shared.SelectGreedy(4, order[0])
				if err != nil {
					t.Fatal(err)
				}
				ref := world.estimator(t, par)
				refFirst, err := ref.SelectGreedy(4, order[0])
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, order[0].Name()+" first", estScorer(t, ref), estScorer(t, shared),
					refFirst.Seeds, first.Seeds, refFirst.Gains, first.Gains, refFirst.Value, first.Value)

				second, err := shared.SelectGreedy(4, order[1])
				if err != nil {
					t.Fatal(err)
				}
				set := world.makeSet()
				for _, u := range first.Seeds {
					set.AddSeed(u, nil)
				}
				fresh, err := walks.NewEstimator(set, world.target, world.init, world.comp, world.weights(set), par)
				if err != nil {
					t.Fatal(err)
				}
				refSecond, err := fresh.SelectGreedy(4, order[1])
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, order[1].Name()+" after "+order[0].Name(), estScorer(t, fresh), estScorer(t, shared),
					refSecond.Seeds, second.Seeds, refSecond.Gains, second.Gains, refSecond.Value, second.Value)
			}
		}
	}
}

// TestContinueGreedyMatchesUninterrupted is the prefix contract the serving
// layer rests on: for every score kind, both owner-weight schemes and P = 1
// and 4, re-applying the first j seeds of a k-round run to a pristine set and
// running the k − j missing rounds (ContinueGreedy) reproduces the
// uninterrupted SelectGreedy(k) of a fresh estimator — seeds, the gains of
// the rounds it ran and the final value bit for bit, for every j in 0..k−1 —
// and both match the oracle, on a single-shard and on the three-shard world.
func TestContinueGreedyMatchesUninterrupted(t *testing.T) {
	const k = 8
	for _, sketch := range []bool{false, true} {
		for _, world := range []*equivWorld{newEquivWorld(t, 17, 40, sketch), newShardedWorld(t, sketch)} {
			for _, score := range equivScores {
				ref := world.oracle()
				want := ref.SelectGreedy(k, score)
				prob := &core.Problem{Sys: world.sys, Target: world.target, Horizon: world.horizon, K: k, Score: score}
				for _, par := range []int{1, 4} {
					label := fmt.Sprintf("%s/sketch=%v/P%d", score.Name(), sketch, par)
					fresh := world.estimator(t, par)
					whole, err := fresh.SelectGreedy(k, score)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRun(t, label, ref.EstimatedScore, estScorer(t, fresh), want.Seeds, whole.Seeds, want.Gains, whole.Gains, want.Value, whole.Value)
					for j := 0; j < k; j++ {
						set := world.makeSet()
						run, err := walks.ContinueGreedy(prob, set, world.weights(set), world.comp, want.Seeds[:j], par)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(run.Seeds, want.Seeds) || !slices.Equal(run.Gains, want.Gains[j:]) || run.Value != want.Value {
							t.Fatalf("%s: continued from %d seeds: seeds %v gains %v value %v, uninterrupted %v %v %v",
								label, j, run.Seeds, run.Gains, run.Value, want.Seeds, want.Gains[j:], want.Value)
						}
						if len(run.Rounds) != k-j || (j == 0) != (run.Replay.WalksTruncated == 0) {
							t.Fatalf("%s: continued from %d seeds: %d round records, replay %+v", label, j, len(run.Rounds), run.Replay)
						}
					}
				}
				if _, err := walks.ContinueGreedy(prob, world.makeSet(), world.weights(world.makeSet()), world.comp, want.Seeds, 1); err == nil {
					t.Fatalf("%s: a prefix as long as k left no round to run, want an error", score.Name())
				}
			}
		}
	}
}

// TestIndexedAddSeedMatchesScan pins the Set-level contract: index-backed
// truncation must leave every walk's end pointer exactly where the oracle's
// scan over the walks leaves it, seed after seed, including re-truncations
// of already dead walks and no-op re-adds. The set starts without an index
// and builds it on its first AddSeed.
func TestIndexedAddSeedMatchesScan(t *testing.T) {
	world := newEquivWorld(t, 11, 35, false)
	scan := world.oracle()
	indexed := world.makeSet()
	if indexed.HasIndex() {
		t.Fatal("index setup: a generated set should carry no index yet")
	}
	r := rand.New(rand.NewSource(5))
	distinct := map[int32]bool{}
	for step := 0; step < 12; step++ {
		u := int32(r.Intn(world.n))
		distinct[u] = true
		scan.AddSeed(u)
		indexed.AddSeed(u, nil)
		if !indexed.HasIndex() {
			t.Fatal("AddSeed on a set without an index did not build one")
		}
		for w := 0; w < indexed.NumWalks(); w++ {
			if a, b := scan.WalkLen(w), len(indexed.WalkNodes(w)); a != b {
				t.Fatalf("step %d seed %d: walk %d truncated to %d nodes, scan reference %d", step, u, w, b, a)
			}
		}
	}
	if len(indexed.Seeds()) != len(distinct) {
		t.Fatalf("seed list has %d entries for %d distinct seeds", len(indexed.Seeds()), len(distinct))
	}
}

// TestBytesUsedCountsIndex pins the BytesUsed fix: building the postings
// index and applying seeds must both be visible in the reported footprint.
func TestBytesUsedCountsIndex(t *testing.T) {
	world := newEquivWorld(t, 13, 20, false)
	set := world.makeSet()
	base := set.BytesUsed()
	set.EnsureIndex()
	withIdx := set.BytesUsed()
	if withIdx <= base {
		t.Fatalf("BytesUsed ignores the postings index: %d <= %d", withIdx, base)
	}
	set.AddSeed(3, nil)
	if set.BytesUsed() <= withIdx {
		t.Fatalf("BytesUsed ignores the seeds slice: %d <= %d", set.BytesUsed(), withIdx)
	}
}
