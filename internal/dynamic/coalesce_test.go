package dynamic_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/opinion"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// randomBatch builds a valid batch against cur: edge ops over a small node
// range (so column collisions between batches are common and the
// disjointness rule actually gates merges), vector ops over an even
// smaller range (so last-write-wins elision actually triggers), and
// remove_edge only for edges present before the batch.
func randomBatch(t *testing.T, r *rand.Rand, cur *opinion.System) dynamic.Batch {
	t.Helper()
	n := int32(cur.N())
	g := cur.Candidate(0).G
	var b dynamic.Batch
	removed := map[[2]int32]bool{}
	for len(b) == 0 || (len(b) < 6 && r.Intn(3) > 0) {
		switch r.Intn(5) {
		case 0:
			b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge,
				From: r.Int31n(n), To: r.Int31n(n / 4), W: 0.25 + r.Float64()})
		case 1:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight,
				From: r.Int31n(n), To: r.Int31n(n / 4), W: 0.25 + r.Float64()})
		case 2:
			v := r.Int31n(n / 4)
			src, _ := g.InNeighbors(v)
			if len(src) == 0 || removed[[2]int32{src[0], v}] {
				continue
			}
			removed[[2]int32{src[0], v}] = true
			b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: src[0], To: v})
		case 3:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetOpinion,
				Cand: r.Intn(cur.R()), Node: r.Int31n(8), Value: r.Float64()})
		default:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetStubbornness,
				Cand: r.Intn(cur.R()), Node: r.Int31n(8), Value: r.Float64()})
		}
	}
	return b
}

// requireSameBits asserts two systems are bitwise identical: the graph CSR
// arrays and every candidate's opinion/stubbornness vectors, compared via
// Float64bits so -0.0 vs 0.0 or NaN-payload drift would be caught.
func requireSameBits(t *testing.T, label string, a, b *opinion.System) {
	t.Helper()
	ga, gb := a.Candidate(0).G.Arrays(), b.Candidate(0).G.Arrays()
	if ga.N != gb.N || len(ga.InSrc) != len(gb.InSrc) {
		t.Fatalf("%s: graph shape differs: n %d vs %d, m %d vs %d", label, ga.N, gb.N, len(ga.InSrc), len(gb.InSrc))
	}
	i32s := func(name string, x, y []int32) {
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %d vs %d", label, name, i, x[i], y[i])
			}
		}
	}
	f64s := func(name string, x, y []float64) {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: %s[%d] = %x vs %x (%v vs %v)", label, name, i,
					math.Float64bits(x[i]), math.Float64bits(y[i]), x[i], y[i])
			}
		}
	}
	i32s("inStart", ga.InStart, gb.InStart)
	i32s("inSrc", ga.InSrc, gb.InSrc)
	f64s("inW", ga.InW, gb.InW)
	i32s("outStart", ga.OutStart, gb.OutStart)
	i32s("outDst", ga.OutDst, gb.OutDst)
	f64s("outW", ga.OutW, gb.OutW)
	if a.R() != b.R() {
		t.Fatalf("%s: candidate count %d vs %d", label, a.R(), b.R())
	}
	for q := 0; q < a.R(); q++ {
		f64s("init", a.Candidate(q).Init, b.Candidate(q).Init)
		f64s("stub", a.Candidate(q).Stub, b.Candidate(q).Stub)
	}
}

// TestCoalesceByteIdentity: applying the coalesced super-batches must land
// on a system bitwise identical to replaying every raw batch in order —
// the property that lets the async applier repair per run while the
// persisted log keeps the raw batches.
func TestCoalesceByteIdentity(t *testing.T) {
	totalElided := 0
	for _, seed := range []int64{1, 7, 42} {
		r := rand.New(rand.NewSource(seed))
		sys := testSystem(t, 120, seed)
		cur := sys
		var raw []dynamic.Batch
		for i := 0; i < 40; i++ {
			b := randomBatch(t, r, cur)
			raw = append(raw, b)
			next, _, err := dynamic.ApplySystem(cur, b)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		for _, maxOps := range []int{0, 12} {
			runs := dynamic.Coalesce(raw, maxOps)
			if len(runs) >= len(raw) {
				t.Fatalf("seed %d maxOps %d: coalescer merged nothing (%d runs from %d batches)", seed, maxOps, len(runs), len(raw))
			}
			var rawCount int
			co := sys
			for _, run := range runs {
				if maxOps > 0 && len(run.Super) > maxOps && len(run.Raw) > 1 {
					t.Fatalf("seed %d: merged run exceeds maxOps: %d ops", seed, len(run.Super))
				}
				rawCount += len(run.Raw)
				next, _, err := dynamic.ApplySystem(co, run.Super)
				if err != nil {
					t.Fatal(err)
				}
				co = next
			}
			if rawCount != len(raw) {
				t.Fatalf("seed %d: runs cover %d raw batches, want %d", seed, rawCount, len(raw))
			}
			requireSameBits(t, "coalesced vs sequential", co, cur)
		}
		totalElided += dynamic.CoalescedOps(dynamic.Coalesce(raw, 0))
	}
	if totalElided <= 0 {
		t.Fatal("expected some elided ops across the duplicate-heavy streams")
	}
}

// TestCoalesceRules pins the merge gating and elision rules directly.
func TestCoalesceRules(t *testing.T) {
	setW := func(from, to int32, w float64) dynamic.Op {
		return dynamic.Op{Kind: dynamic.OpSetWeight, From: from, To: to, W: w}
	}
	setOp := func(node int32, v float64) dynamic.Op {
		return dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: 0, Node: node, Value: v}
	}

	// Batches touching the same destination column must not merge.
	runs := dynamic.Coalesce([]dynamic.Batch{{setW(1, 5, 1)}, {setW(2, 5, 1)}}, 0)
	if len(runs) != 2 {
		t.Fatalf("same-column batches merged: %d runs", len(runs))
	}
	// Disjoint columns merge, and vector ops never block a merge.
	runs = dynamic.Coalesce([]dynamic.Batch{{setW(1, 5, 1), setOp(3, 0.5)}, {setW(2, 6, 1), setOp(3, 0.9)}}, 0)
	if len(runs) != 1 {
		t.Fatalf("disjoint-column batches did not merge: %d runs", len(runs))
	}
	// The overwritten opinion write is elided, the final one kept.
	super := runs[0].Super
	if len(super) != 3 {
		t.Fatalf("super batch = %v, want the first set_opinion elided", super)
	}
	for _, op := range super {
		if op.Kind == dynamic.OpSetOpinion && op.Value != 0.9 {
			t.Fatalf("kept the overwritten opinion write: %v", super)
		}
	}
	// An overwritten set_weight is elided within a batch...
	runs = dynamic.Coalesce([]dynamic.Batch{{setW(1, 5, 1), setW(1, 5, 2)}}, 0)
	if got := runs[0].Super; len(got) != 1 || got[0].W != 2 {
		t.Fatalf("intra-batch set_weight not elided: %v", got)
	}
	// ...but not across an intervening remove of the same edge, whose
	// missing-edge check may need the first set's insert.
	rm := dynamic.Op{Kind: dynamic.OpRemoveEdge, From: 1, To: 5}
	runs = dynamic.Coalesce([]dynamic.Batch{{setW(1, 5, 1), rm, setW(1, 5, 2)}}, 0)
	if got := runs[0].Super; len(got) != 3 {
		t.Fatalf("set_weight before a remove barrier was elided: %v", got)
	}
	// maxOps caps merged runs but never splits a single batch.
	runs = dynamic.Coalesce([]dynamic.Batch{{setW(1, 5, 1)}, {setW(1, 6, 1)}}, 1)
	if len(runs) != 2 {
		t.Fatalf("maxOps=1 still merged: %d runs", len(runs))
	}
}

// TestCoalescedSelectionEquivalence is the end-to-end half of the proof:
// repairing sampled artifacts once per coalesced run must leave greedy
// selection bit-identical to repairing after every raw batch, for all five
// score kinds, both samplers, at parallelism 1/4/0.
func TestCoalescedSelectionEquivalence(t *testing.T) {
	const (
		n       = 120
		seed    = int64(11)
		horizon = 5
		k       = 5
		theta   = 500
		lambda  = 12
	)
	sys := testSystem(t, n, 9)

	// Three raw batches with pairwise-disjoint edge columns (so they merge
	// into one run) and overlapping vector writes (so elision is on the
	// tested path).
	raw := []dynamic.Batch{
		{{Kind: dynamic.OpAddEdge, From: 3, To: 11, W: 1},
			{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 7, Value: 0.2}},
		{{Kind: dynamic.OpSetWeight, From: 40, To: 41, W: 0.5},
			{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 9, Value: 0.6}},
		{{Kind: dynamic.OpRemoveEdge, From: firstInNeighbor(t, sys, 20), To: 20},
			{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 7, Value: 0.95}},
	}

	// Sequential: apply per raw batch.
	seqSys := sys
	var changes []*dynamic.ChangeSet
	var systems []*opinion.System
	for _, b := range raw {
		next, cs, err := dynamic.ApplySystem(seqSys, b)
		if err != nil {
			t.Fatal(err)
		}
		changes, systems = append(changes, cs), append(systems, next)
		seqSys = next
	}

	// Coalesced: one merged super-batch.
	runs := dynamic.Coalesce(raw, 0)
	if len(runs) != 1 {
		t.Fatalf("fixture batches formed %d runs, want 1", len(runs))
	}
	coSys, coChange, err := dynamic.ApplySystem(sys, runs[0].Super)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "selection fixture", coSys, seqSys)

	scores := []voting.Score{
		voting.Cumulative{},
		voting.Plurality{},
		voting.PApproval{P: 2},
		voting.Positional{P: 2, Omega: []float64{1, 0.5}},
		voting.Copeland{},
	}
	init := seqSys.Candidate(0).Init
	comp := core.CompetitorOpinions(seqSys, 0, horizon, 1)
	for _, d := range walkDraws(seed, lambda, theta) {
		name := fmt.Sprintf("theta=%d/lambda=%d", d.Theta, d.Lambda)
		// One repair per raw batch against one repair for the whole run.
		seq := drawOn(t, d, sys, horizon)
		for i, cs := range changes {
			if seq, _, err = d.Repair(nil, groundOf(t, systems[i]), seq, cs.WalkMask(n, 0), 1); err != nil {
				t.Fatal(err)
			}
		}
		co, _, err := d.Repair(nil, groundOf(t, coSys), drawOn(t, d, sys, horizon), coChange.WalkMask(n, 0), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, score := range scores {
			for _, par := range []int{1, 4, 0} {
				ref, err := walks.NewEstimator(seq.Clone(), 0, init, comp, d.Weights(seq), par)
				if err != nil {
					t.Fatal(err)
				}
				refRes, err := ref.SelectGreedy(k, score)
				if err != nil {
					t.Fatal(err)
				}
				est, err := walks.NewEstimator(co.Clone(), 0, init, comp, d.Weights(co), par)
				if err != nil {
					t.Fatal(err)
				}
				res, err := est.SelectGreedy(k, score)
				if err != nil {
					t.Fatal(err)
				}
				for i := range refRes.Seeds {
					if refRes.Seeds[i] != res.Seeds[i] || refRes.Gains[i] != res.Gains[i] {
						t.Fatalf("%s/%s P=%d: round %d (seed, gain) = (%d, %v), sequential (%d, %v)",
							name, score.Name(), par, i, res.Seeds[i], res.Gains[i], refRes.Seeds[i], refRes.Gains[i])
					}
				}
				if refRes.Value != res.Value {
					t.Fatalf("%s/%s P=%d: value %v, sequential %v", name, score.Name(), par, res.Value, refRes.Value)
				}
			}
		}
	}
}
