package dynamic_test

import (
	"fmt"
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

// walkDraws is the table the repair tests drive through the one shared
// draw → repair → select path: RW's planned starts and RS's sampled ones.
func walkDraws(seed int64, lambda, theta int) []walks.Draw {
	return []walks.Draw{rwalk.Draw(seed, lambda), sketch.Draw(seed, theta)}
}

// drawOn draws d over sys's candidate 0 and indexes the set (indexed
// artifacts must stay indexed through repair).
func drawOn(t *testing.T, d walks.Draw, sys *opinion.System, horizon int) *walks.Set {
	t.Helper()
	set, err := d.Generate(nil, groundOf(t, sys), horizon, 1)
	if err != nil {
		t.Fatal(err)
	}
	set.EnsureIndex()
	return set
}

func groundOf(t *testing.T, sys *opinion.System) *walks.Ground {
	t.Helper()
	gr, err := walks.NewGround(sys.Candidate(0))
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func repairedSelectionEquivalence(t *testing.T, lambda, theta, wantShards int) {
	const (
		n       = 120
		seed    = int64(4)
		horizon = 5
		k       = 5
	)
	sys := testSystem(t, n, 9)
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
	scores := []voting.Score{
		voting.Cumulative{},
		voting.Plurality{},
		voting.PApproval{P: 2},
		voting.Positional{P: 2, Omega: []float64{1, 0.5}},
		voting.Copeland{},
	}
	init := mutated.Candidate(0).Init
	comp := core.CompetitorOpinions(mutated, 0, horizon, 1)
	for _, d := range walkDraws(seed, lambda, theta) {
		name := fmt.Sprintf("theta=%d/lambda=%d", d.Theta, d.Lambda)
		repaired, _, err := d.Repair(nil, groundOf(t, mutated), drawOn(t, d, sys, horizon), cs.WalkMask(n, 0), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !repaired.HasIndex() {
			t.Fatalf("%s: repair dropped the postings index of an indexed set", name)
		}
		fresh := drawOn(t, d, mutated, horizon)
		if shards := len(walks.ScanShardBounds(n, fresh.NumWalks())) - 1; shards != wantShards {
			t.Fatalf("%s: %d walks fold over %d scan shards, want %d", name, fresh.NumWalks(), shards, wantShards)
		}
		for _, score := range scores {
			refRes := walksref.New(fresh, 0, init, comp, d.Weights(fresh)).SelectGreedy(k, score)
			for _, par := range []int{1, 4, 0} {
				est, err := walks.NewEstimator(repaired.Clone(), 0, init, comp, d.Weights(repaired), par)
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
							name, score.Name(), par, i, res.Seeds[i], res.Gains[i], refRes.Seeds[i], refRes.Gains[i])
					}
				}
				if refRes.Value != res.Value {
					t.Fatalf("%s/%s P=%d: value %v, reference %v", name, score.Name(), par, res.Value, refRes.Value)
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
