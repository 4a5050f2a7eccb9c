package service_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/graph"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// carried reads the carry counters as a delta since before.
type carried struct{ shared, patched, dropped int64 }

func carriedSince(before obs.CostSnapshot) carried {
	d := obs.CaptureCosts().Delta(before)
	return carried{
		shared:  d[`ovm_core_competitor_memo_carried_total{how="shared"}`],
		patched: d[`ovm_core_competitor_memo_carried_total{how="patched"}`],
		dropped: d[`ovm_core_competitor_memo_carried_total{how="dropped"}`],
	}
}

// warmRows makes the current epoch hold the (target, horizon) values of
// pairs: an evaluation at each, with the response cache off, looks its
// instance up.
func warmRows(t *testing.T, svc *service.Service, pairs [][2]int) {
	t.Helper()
	for _, p := range pairs {
		if _, serr := svc.Evaluate(&service.EvaluateRequest{
			Dataset: "world", Score: service.ScoreSpec{Name: "plurality"},
			Target: p[0], Horizon: p[1], Seeds: []int32{1},
		}); serr != nil {
			t.Fatal(serr)
		}
	}
}

// checkRowsFromScratch holds every (target, horizon) value of the current
// epoch to the competitor rows and the target trajectory computed from
// scratch on the epoch's system, Float64bits for bits; row 0 of a
// trajectory must be the system's own Init slice.
func checkRowsFromScratch(t *testing.T, svc *service.Service, label string) int {
	t.Helper()
	ctx := context.Background()
	sys, values := svc.EpochMemoRows("world")
	for _, v := range values {
		at := fmt.Sprintf("%s (target %d, horizon %d)", label, v.Target, v.Horizon)
		comp, err := core.CompetitorOpinionsCtx(ctx, sys, v.Target, v.Horizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		for q := range comp {
			if i := firstBitDiff(v.Comp[q], comp[q]); i >= 0 {
				t.Fatalf("%s: competitor %d row differs from scratch at node %d", at, q, i)
			}
		}
		if v.Traj == nil {
			continue
		}
		c := sys.Candidate(v.Target)
		traj, err := opinion.Trajectory(ctx, c, v.Horizon, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Traj) != len(traj) || &v.Traj[0][0] != &c.Init[0] {
			t.Fatalf("%s: trajectory of %d rows, row 0 the system's Init: %v", at, len(v.Traj), &v.Traj[0][0] == &c.Init[0])
		}
		for s := range traj {
			if i := firstBitDiff(v.Traj[s], traj[s]); i >= 0 {
				t.Fatalf("%s: trajectory row %d differs from scratch at node %d", at, s, i)
			}
		}
	}
	return len(values)
}

// firstBitDiff returns the first index at which a and b differ in their
// float64 bits (0 for a length mismatch), or −1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// randomBatch is one to three ops of every kind the pipeline accepts, on
// random nodes and candidates of sys; a remove_edge takes a real in-edge.
func randomBatch(r *rand.Rand, sys *opinion.System) dynamic.Batch {
	n, g := int32(sys.N()), sys.Candidate(0).G
	var b dynamic.Batch
	for ops := 1 + r.Intn(3); len(b) < ops; {
		a, c, x := r.Int31n(n), r.Int31n(n), r.Float64()
		switch r.Intn(6) {
		case 0:
			if a != c {
				b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge, From: a, To: c, W: 0.25 + x})
			}
		case 1:
			if a != c {
				b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: a, To: c, W: 0.25 + x})
			}
		case 2:
			if src, _ := g.InNeighbors(c); len(src) > 0 && len(b) == 0 {
				b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: src[0], To: c})
			}
		case 3, 4:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: r.Intn(sys.R()), Node: a, Value: x})
		default:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetStubbornness, Cand: r.Intn(sys.R()), Node: a, Value: x})
		}
	}
	return b
}

// refusedBatch removes an edge sys does not have. Accept would reject it;
// a batch recovered from a log (SeedQueued) is not re-validated, so it
// reaches the repair, which refuses it.
func refusedBatch(t *testing.T, sys *opinion.System) dynamic.Batch {
	t.Helper()
	g := sys.Candidate(0).G
	for v := int32(0); v < int32(g.N()); v++ {
		if src, _ := g.InNeighbors(v); !slices.Contains(src, v) {
			return dynamic.Batch{{Kind: dynamic.OpRemoveEdge, From: v, To: v}}
		}
	}
	t.Fatal("fixture: every node has a self-loop")
	return nil
}

// TestCarriedMemoMatchesFromScratch applies a random batch stream, one run
// per batch, to services at P = 1 and 4 whose epochs hold (target, horizon)
// values at two targets and horizons 1, 3 and 8; every eighth batch is one
// the repair refuses, whose epoch is a no-op. After every run, each value
// the new epoch inherited equals core.CompetitorOpinionsCtx and
// opinion.Trajectory computed from scratch on that epoch's system, bit for
// bit, and shared + patched + dropped is the number of values the previous
// epoch held. Over the stream every way of carrying occurs.
func TestCarriedMemoMatchesFromScratch(t *testing.T) {
	sys, idx := sparseWorld(t)
	pairs := [][2]int{{0, 1}, {0, 3}, {0, tdHorizon}, {1, 1}, {1, 3}, {1, tdHorizon}}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("P=%d", par), func(t *testing.T) {
			svc := service.New(service.Config{CacheSize: -1, Parallelism: par})
			defer svc.Close()
			if err := svc.AddIndex("world", idx); err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(int64(31 + par)))
			cur := sys
			var total carried
			for i := 0; i < 40; i++ {
				warmRows(t, svc, pairs)
				_, held := svc.EpochMemoRows("world")
				var batch dynamic.Batch
				before := obs.CaptureCosts()
				if i%8 == 7 {
					batch = refusedBatch(t, cur)
					if serr := svc.SeedQueued("world", []dynamic.Batch{batch}, int64(i+1)); serr != nil {
						t.Fatal(serr)
					}
					if serr := svc.WaitIdle(context.Background(), "world"); serr != nil {
						t.Fatal(serr)
					}
				} else {
					batch = randomBatch(r, cur)
					cur = applyDrift(t, svc, cur, batch)
				}
				got := carriedSince(before)
				if got.shared+got.patched+got.dropped != int64(len(held)) {
					t.Fatalf("run %d: carried %+v, the previous epoch held %d values", i, got, len(held))
				}
				kept := checkRowsFromScratch(t, svc, fmt.Sprintf("run %d %v", i, batch))
				if int64(kept) != got.shared+got.patched {
					t.Fatalf("run %d: the epoch holds %d values, %+v were carried", i, kept, got)
				}
				total = carried{total.shared + got.shared, total.patched + got.patched, total.dropped + got.dropped}
			}
			if total.shared == 0 || total.patched == 0 || total.dropped == 0 {
				t.Errorf("over the stream: %+v, want every way of carrying", total)
			}
		})
	}
}

// TestMemoCarryCounts pins what each kind of successor does with an epoch
// holding the target's values at horizons 1 and 8: an opinion op on a
// competitor patches the horizon-1 value and drops the horizon-8 one, whose
// competitor trajectory the memo does not hold; an opinion op on the target
// patches both; a queued batch that fails to apply, and a checkpoint's
// rebase, share both. Every carried value equals a from-scratch build.
func TestMemoCarryCounts(t *testing.T) {
	sys, idx := sparseWorld(t)
	pairs := [][2]int{{0, 1}, {0, tdHorizon}}
	// The target's op is on a node whose reach stays under the patch budget:
	// the in-edges its tdHorizon-hop neighbourhood owns, the last step's.
	c := sys.Candidate(0)
	node, mass := int32(-1), int64(math.MaxInt64)
	for v := int32(0); v < int32(sys.N()); v++ {
		seeds := []int32{v}
		if m := frontierEdgeSteps(c, seeds, tdHorizon) - frontierEdgeSteps(c, seeds, tdHorizon-1); m < mass {
			node, mass = v, m
		}
	}
	if budget := int64(c.G.M()) / 4; mass > budget {
		t.Fatalf("fixture: the least-reaching node %d owns %d in-edges at step %d, the patch budget is %d", node, mass, tdHorizon, budget)
	}
	cases := []struct {
		name  string
		batch dynamic.Batch
		want  carried
	}{
		{"competitor op", dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 5, Value: 0.9}}, carried{patched: 1, dropped: 1}},
		{"target op", dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: node, Value: 0.9}}, carried{patched: 2}},
	}
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		warmRows(t, svc, pairs)
		before := obs.CaptureCosts()
		sys = applyDrift(t, svc, sys, tc.batch)
		if got := carriedSince(before); got != tc.want {
			t.Errorf("%s: carried %+v, want %+v", tc.name, got, tc.want)
		}
		checkRowsFromScratch(t, svc, tc.name)
	}

	// A batch the repair refuses: its epoch is a no-op.
	warmRows(t, svc, pairs)
	before := obs.CaptureCosts()
	if serr := svc.SeedQueued("world", []dynamic.Batch{refusedBatch(t, sys)}, 3); serr != nil {
		t.Fatal(serr)
	}
	if serr := svc.WaitIdle(context.Background(), "world"); serr != nil {
		t.Fatal(serr)
	}
	if got := carriedSince(before); got != (carried{shared: 2}) {
		t.Errorf("failed batch: carried %+v, want both shared", got)
	}
	checkRowsFromScratch(t, svc, "failed batch")

	// A checkpoint installed under a served file.
	_, path := fileWorld(t)
	f := openFiled(t, path, 0)
	if _, serr := f.svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: cases[0].batch}); serr != nil {
		t.Fatal(serr)
	}
	warmRows(t, f.svc, pairs)
	before = obs.CaptureCosts()
	if err := f.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := carriedSince(before); got != (carried{shared: 2}) {
		t.Errorf("checkpoint rebase: carried %+v, want both shared", got)
	}
	checkRowsFromScratch(t, f.svc, "checkpoint rebase")
}

// cliqueWorld is a 400-node, two-candidate system on one graph: a complete
// digraph with self-loops on nodes 0..9, which nothing outside it reaches
// and which reaches nothing outside it, and one in-edge from another
// outside node on each of the 390 others. A batch on node 0 therefore
// reaches the 10 clique nodes in one hop and no further: they own 100 of
// the m = 490 in-edges at every step, under the m/4 patch budget.
func cliqueWorld(t *testing.T) (*opinion.System, *serialize.Index) {
	t.Helper()
	const n, clique = 400, 10
	r := rand.New(rand.NewSource(5))
	var edges []graph.Edge
	for v := int32(0); v < n; v++ {
		if v < clique {
			for u := int32(0); u < clique; u++ {
				edges = append(edges, graph.Edge{From: u, To: v, W: 1})
			}
			continue
		}
		u := v
		for u == v {
			u = clique + r.Int31n(n-clique)
		}
		edges = append(edges, graph.Edge{From: u, To: v, W: 1})
	}
	g, err := graph.FromEdgesColumnStochastic(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]*opinion.Candidate, 2)
	for q := range cands {
		c := &opinion.Candidate{Name: fmt.Sprint(q), G: g, Init: make([]float64, n), Stub: make([]float64, n)}
		for v := range c.Init {
			c.Init[v], c.Stub[v] = r.Float64(), 0.3
		}
		cands[q] = c
	}
	sys, err := opinion.NewSystem(cands)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(sys, service.BuildOptions{Horizon: tdHorizon, Seed: tdSeed, SketchTheta: 256})
	if err != nil {
		t.Fatal(err)
	}
	return sys, idx
}

// TestCarryBudget: an update's patches do at most one dense rebuild's work
// (that of the value with the deepest trajectory: r·horizon·(m + n),
// counted as opinion.PatchTrajectory counts work), the values read most
// recently first. The epoch holds the target's values at horizons 1..8,
// read in that order, and a batch moves node 0 of cliqueWorld's target, so
// every value needs a patch: a search of n + 100 (10 at h = 1), then 100·h
// edge steps and h rows of n. The budget of 2·8·(490 + 400) = 14 240
// patches horizons 8, 7 and 6 (4 500, 4 000, 3 500), pays the search of
// each other value and drops it. Then a carried value counts as read once
// per epoch, however often it is read, and a value the epoch built itself
// does not count.
func TestCarryBudget(t *testing.T) {
	sys, idx := cliqueWorld(t)
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddIndex("world", idx); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for h := 1; h <= tdHorizon; h++ {
		pairs = append(pairs, [2]int{0, h})
	}
	warmRows(t, svc, pairs)
	c := sys.Candidate(0)
	n := int64(c.G.N())
	budget := int64(sys.R()*tdHorizon) * (int64(c.G.M()) + n)
	var wantEdges int64
	var kept []int
	for h := tdHorizon; h >= 1 && budget > 0; h-- {
		edges := frontierEdgeSteps(c, []int32{0}, h)
		search := n + int64(c.G.OutDegree(0))
		if h > 1 {
			search = n + 10*10
		}
		if work := search + edges + int64(h)*n; work <= budget {
			wantEdges += edges
			kept = append(kept, h)
			budget -= work
		} else {
			budget -= search
		}
	}
	if !slices.Equal(kept, []int{8, 7, 6}) {
		t.Fatalf("fixture: the budget keeps horizons %v, want 8, 7 and 6", kept)
	}
	before := obs.CaptureCosts()
	sys = applyDrift(t, svc, sys, dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 0, Value: 0.9}})
	cost := obs.CaptureCosts().Delta(before)
	if got := carriedSince(before); got != (carried{patched: 3, dropped: 5}) {
		t.Errorf("carried %+v, want 3 patched and 5 dropped", got)
	}
	if cost["ovm_opinion_edge_steps_total"] != wantEdges {
		t.Errorf("the carry stepped %d edges, want %d", cost["ovm_opinion_edge_steps_total"], wantEdges)
	}
	_, values := svc.EpochMemoRows("world")
	var horizons []int
	for _, v := range values {
		horizons = append(horizons, v.Horizon)
	}
	if !slices.Equal(horizons, []int{6, 7, 8}) {
		t.Errorf("the epoch holds horizons %v, least recently used first; want 6, 7, 8", horizons)
	}
	checkRowsFromScratch(t, svc, "budget")

	before = obs.CaptureCosts()
	warmRows(t, svc, [][2]int{{0, 8}, {0, 8}, {0, 7}, {0, 1}})
	if got := obs.CaptureCosts().Delta(before)["ovm_core_competitor_memo_carried_reads_total"]; got != 2 {
		t.Errorf("reading two carried values, one twice, and a rebuilt one counted %d carried reads, want 2", got)
	}
}
