package dynamic_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ovm/internal/dynamic"
	"ovm/internal/graph"
	"ovm/internal/opinion"
)

func testSystem(t *testing.T, n int, seed int64) *opinion.System {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges, err := graph.Gnp(n, 5.0/float64(n), r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgesColumnStochastic(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	cands := make([]*opinion.Candidate, 3)
	for q := range cands {
		init := make([]float64, n)
		stub := make([]float64, n)
		for v := range init {
			init[v] = r.Float64()
			stub[v] = 0.1 + 0.8*r.Float64()
		}
		cands[q] = &opinion.Candidate{Name: string(rune('A' + q)), G: g, Init: init, Stub: stub}
	}
	sys, err := opinion.NewSystem(cands)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestApplySystem(t *testing.T) {
	sys := testSystem(t, 80, 1)
	batch := dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 2, To: 9, W: 1},
		{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 14, Value: 0.9},
		{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 5, Value: 0.3},
	}
	next, cs, err := dynamic.ApplySystem(sys, batch)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Candidate(1).Init[14] == 0.9 && sys.Candidate(1).Init[14] == next.Candidate(1).Init[14] {
		t.Fatal("fixture degenerate: opinion already 0.9")
	}
	if next.Candidate(1).Init[14] != 0.9 {
		t.Fatalf("opinion not applied: %v", next.Candidate(1).Init[14])
	}
	if next.Candidate(0).Stub[5] != 0.3 {
		t.Fatalf("stubbornness not applied: %v", next.Candidate(0).Stub[5])
	}
	// Untouched vectors are shared, touched ones are copies.
	if &next.Candidate(2).Init[0] != &sys.Candidate(2).Init[0] {
		t.Fatal("untouched init vector should be shared")
	}
	if &next.Candidate(1).Init[0] == &sys.Candidate(1).Init[0] {
		t.Fatal("touched init vector must be copied")
	}
	if sys.Candidate(0).Stub[5] == 0.3 {
		t.Fatal("input system was mutated")
	}
	if len(cs.EdgeTouched) != 1 || cs.EdgeTouched[0] != 9 {
		t.Fatalf("EdgeTouched = %v, want [9]", cs.EdgeTouched)
	}
	if got := cs.StubTouched[0]; len(got) != 1 || got[0] != 5 {
		t.Fatalf("StubTouched[0] = %v, want [5]", got)
	}
	if cs.NumTouched() != 3 {
		t.Fatalf("NumTouched = %d, want 3", cs.NumTouched())
	}
	mask := cs.WalkMask(80, 0)
	if !mask[9] || !mask[5] || mask[14] {
		t.Fatalf("WalkMask(0) wrong: edge=%v stub=%v opinion=%v", mask[9], mask[5], mask[14])
	}
	// Candidate 1 changed no stubbornness: its mask is the edge-touched nodes alone.
	if m := cs.WalkMask(80, 1); !m[9] || m[5] {
		t.Fatal("WalkMask(1) must contain only edge-touched nodes")
	}
}

func TestBatchValidate(t *testing.T) {
	const n, r = 10, 2
	cases := []struct {
		name string
		op   dynamic.Op
	}{
		{"unknown kind", dynamic.Op{Kind: "grow_node"}},
		{"edge from range", dynamic.Op{Kind: dynamic.OpAddEdge, From: -1, To: 0, W: 1}},
		{"edge to range", dynamic.Op{Kind: dynamic.OpRemoveEdge, From: 0, To: 10}},
		{"zero weight", dynamic.Op{Kind: dynamic.OpAddEdge, From: 0, To: 1, W: 0}},
		{"nan weight", dynamic.Op{Kind: dynamic.OpSetWeight, From: 0, To: 1, W: math.NaN()}},
		{"candidate range", dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: 2, Node: 0, Value: 0.5}},
		{"node range", dynamic.Op{Kind: dynamic.OpSetStubbornness, Cand: 0, Node: 10, Value: 0.5}},
		{"value range", dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 0, Value: 1.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := (dynamic.Batch{tc.op}).Validate(n, r); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
	if err := (dynamic.Batch{}).Validate(n, r); err == nil {
		t.Fatal("empty batch must fail validation")
	}
	ok := dynamic.Batch{
		{Kind: dynamic.OpAddEdge, From: 0, To: 1, W: 0.5},
		{Kind: dynamic.OpSetOpinion, Cand: 1, Node: 9, Value: 1},
	}
	if err := ok.Validate(n, r); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestReadBatches(t *testing.T) {
	input := strings.Join([]string{
		`# comment`,
		``,
		`{"op":"add_edge","from":1,"to":2,"w":0.5}`,
		`[{"op":"remove_edge","from":3,"to":4},{"op":"set_opinion","candidate":1,"node":7,"value":0.25}]`,
	}, "\n")
	batches, err := dynamic.ReadBatches(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	if len(batches[0]) != 1 || batches[0][0].Kind != dynamic.OpAddEdge || batches[0][0].W != 0.5 {
		t.Fatalf("batch 0 = %+v", batches[0])
	}
	if len(batches[1]) != 2 || batches[1][1].Cand != 1 || batches[1][1].Node != 7 {
		t.Fatalf("batch 1 = %+v", batches[1])
	}
	for _, bad := range []string{
		`{"op":"add_edge","unknown":1}`,
		`[]`,
		`not json`,
		`{"op":"add_edge"} trailing`,
	} {
		if _, err := dynamic.ReadBatches(strings.NewReader(bad)); err == nil {
			t.Fatalf("malformed input %q must fail", bad)
		}
	}
}

func TestReplaySystemComposes(t *testing.T) {
	sys := testSystem(t, 60, 2)
	b1 := dynamic.Batch{{Kind: dynamic.OpAddEdge, From: 1, To: 2, W: 1}}
	b2 := dynamic.Batch{{Kind: dynamic.OpSetStubbornness, Cand: 1, Node: 3, Value: 0.7}}
	replayed, touched, err := dynamic.ReplaySystem(sys, []dynamic.Batch{b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	if touched != 2 {
		t.Fatalf("touched = %d, want 2", touched)
	}
	step1, _, err := dynamic.ApplySystem(sys, b1)
	if err != nil {
		t.Fatal(err)
	}
	step2, _, err := dynamic.ApplySystem(step1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Candidate(1).Stub[3] != step2.Candidate(1).Stub[3] {
		t.Fatal("replay differs from manual composition")
	}
	// Edge weights after replay match the step-by-step application bitwise.
	rs, rw := replayed.Candidate(0).G.InNeighbors(2)
	ss, sw := step2.Candidate(0).G.InNeighbors(2)
	if len(rs) != len(ss) {
		t.Fatal("in-degree mismatch after replay")
	}
	for i := range rs {
		if rs[i] != ss[i] || rw[i] != sw[i] {
			t.Fatal("in-edges mismatch after replay")
		}
	}
}
