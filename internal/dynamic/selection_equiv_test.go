package dynamic_test

import (
	"testing"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/opinion"
	"ovm/internal/rwalk"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
	"ovm/internal/walks/walksref"
)

// TestRepairedSelectionIncrementalEquivalence closes the loop between the
// dynamic-update path and the incremental selection engine: after a
// mutation batch + incremental repair, greedy selection over the repaired
// (and index-carrying) walk sets must be bit-identical to the
// from-the-definition oracle (walksref) over a from-scratch regeneration on
// the mutated system — for every score kind, both samplers, at parallelism
// 1/4/0, on single-shard walk sets and on sets spanning three scan shards.
func TestRepairedSelectionIncrementalEquivalence(t *testing.T) {
	t.Run("one-shard", func(t *testing.T) { repairedSelectionEquivalence(t, 12, 500, 1) })
	t.Run("three-shards", func(t *testing.T) { repairedSelectionEquivalence(t, 40, 4800, 3) })
}

func repairedSelectionEquivalence(t *testing.T, lambda int32, theta, wantShards int) {
	const (
		n       = 120
		seed    = int64(4)
		horizon = 5
		k       = 5
	)
	sys := testSystem(t, n, 9)
	prob := &core.Problem{Sys: sys, Target: 0, Horizon: horizon, K: k, Score: voting.Cumulative{}}

	plan := make([]int32, n)
	for i := range plan {
		plan[i] = lambda
	}
	rwOld, err := rwalk.GenerateSet(prob, plan, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	rwOld.EnsureIndex() // indexed artifacts must stay indexed through repair
	rsOld, err := sketch.GenerateSet(prob, theta, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	rsOld.EnsureIndex()

	batch := dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 3, To: 11, W: 1},
		{Kind: dynamic.OpAddEdge, From: 40, To: 41, W: 0.5},
		{Kind: dynamic.OpRemoveEdge, From: firstInNeighbor(t, sys, 20), To: 20},
		{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 7, Value: 0.95},
		{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 9, Value: 0.6},
	}
	mutated, cs, err := dynamic.ApplySystem(sys, batch)
	if err != nil {
		t.Fatal(err)
	}
	mprob := &core.Problem{Sys: mutated, Target: 0, Horizon: horizon, K: k, Score: voting.Cumulative{}}

	rwRepaired, _, err := rwalk.RepairSet(mprob, rwOld, cs.WalkMask(n, 0), seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rwRepaired.HasIndex() {
		t.Fatal("repair dropped the postings index of an indexed RW set")
	}
	rsRepaired, _, err := sketch.RepairSet(mprob, rsOld, cs.WalkMask(n, 0), seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rsRepaired.HasIndex() {
		t.Fatal("repair dropped the postings index of an indexed sketch set")
	}
	rwFresh, err := rwalk.GenerateSet(mprob, plan, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	rsFresh, err := sketch.GenerateSet(mprob, theta, seed, 1)
	if err != nil {
		t.Fatal(err)
	}

	scores := []voting.Score{
		voting.Cumulative{},
		voting.Plurality{},
		voting.PApproval{P: 2},
		voting.Positional{P: 2, Omega: []float64{1, 0.5}},
		voting.Copeland{},
	}
	init := mutated.Candidate(0).Init
	comp := core.CompetitorOpinions(mutated, 0, horizon, 1)
	type sampler struct {
		name     string
		repaired *walks.Set
		fresh    *walks.Set
		weights  func(*walks.Set) []float64
	}
	samplers := []sampler{
		{"rw", rwRepaired, rwFresh, func(s *walks.Set) []float64 { return walks.UniformOwnerWeights(s) }},
		{"rs", rsRepaired, rsFresh, func(s *walks.Set) []float64 { return walks.SketchOwnerWeights(s, theta) }},
	}
	for _, sm := range samplers {
		if shards := len(walks.ScanShardBounds(n, sm.fresh.NumWalks())) - 1; shards != wantShards {
			t.Fatalf("%s: %d walks fold over %d scan shards, want %d", sm.name, sm.fresh.NumWalks(), shards, wantShards)
		}
		for _, score := range scores {
			refRes := walksref.New(sm.fresh, 0, init, comp, sm.weights(sm.fresh)).SelectGreedy(k, score)
			for _, par := range []int{1, 4, 0} {
				est, err := walks.NewEstimator(sm.repaired.Clone(), 0, init, comp, sm.weights(sm.repaired), par)
				if err != nil {
					t.Fatal(err)
				}
				res, err := est.SelectGreedy(k, score)
				if err != nil {
					t.Fatal(err)
				}
				for i := range refRes.Seeds {
					if refRes.Seeds[i] != res.Seeds[i] || refRes.Gains[i] != res.Gains[i] {
						t.Fatalf("%s/%s P=%d: round %d (seed, gain) = (%d, %v), reference (%d, %v)",
							sm.name, score.Name(), par, i, res.Seeds[i], res.Gains[i], refRes.Seeds[i], refRes.Gains[i])
					}
				}
				if refRes.Value != res.Value {
					t.Fatalf("%s/%s P=%d: value %v, reference %v", sm.name, score.Name(), par, res.Value, refRes.Value)
				}
			}
		}
	}
}

// firstInNeighbor returns an existing in-neighbor of node v so the batch
// can include a guaranteed-valid edge removal.
func firstInNeighbor(t *testing.T, sys *opinion.System, v int32) int32 {
	t.Helper()
	src, _ := sys.Candidate(0).G.InNeighbors(v)
	if len(src) == 0 {
		t.Fatalf("fixture: node %d has no in-neighbors", v)
	}
	return src[0]
}
