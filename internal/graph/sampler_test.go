package graph

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestInEdgeSamplerDistribution(t *testing.T) {
	// Node 2 has in-weights 0.25 (from 0), 0.25 (from 1), 0.5 (self).
	g := figure1(t)
	s, err := NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	counts := map[int32]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[s.Sample(2, r)]++
	}
	want := map[int32]float64{0: 0.25, 1: 0.25, 2: 0.5}
	for v, p := range want {
		got := float64(counts[v]) / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("P(sample=%d) = %v, want %v", v, got, p)
		}
	}
}

func TestInEdgeSamplerSelfLoopNode(t *testing.T) {
	g := figure1(t)
	s, err := NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if got := s.Sample(0, r); got != 0 {
			t.Fatalf("node 0 has only a self-loop; sampled %d", got)
		}
	}
}

func TestInEdgeSamplerRequiresStochastic(t *testing.T) {
	b := NewBuilder(3)
	_ = b.AddEdge(0, 1, 0.3) // node 1's in-weights sum to 0.3; nodes 0,2 have none
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInEdgeSampler(g); err == nil {
		t.Error("expected error for non-stochastic graph")
	}
}

func TestInEdgeSamplerRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 20 + r.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < 6*n; i++ {
			_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), r.Float64()+0.01)
		}
		g, err := b.BuildColumnStochastic()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewInEdgeSampler(g)
		if err != nil {
			t.Fatal(err)
		}
		// Spot-check one node's empirical distribution.
		v := int32(r.Intn(n))
		src, w := g.InNeighbors(v)
		counts := make(map[int32]int)
		const draws = 50000
		for i := 0; i < draws; i++ {
			counts[s.Sample(v, r)]++
		}
		probs := map[int32]float64{}
		for i := range src {
			probs[src[i]] += w[i]
		}
		for u, p := range probs {
			got := float64(counts[u]) / draws
			if math.Abs(got-p) > 0.03 {
				t.Errorf("trial %d node %d: P(%d) = %v, want %v", trial, v, u, got, p)
			}
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := figure1(t)
	sub, mapping, err := g.InducedSubgraph([]int32{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 {
		t.Fatalf("sub.N = %d, want 3", sub.N())
	}
	if mapping[1] != -1 {
		t.Error("excluded node should map to -1")
	}
	// Edges kept: 0→0 (self-loop from normalization), 0→2 (0.25),
	// 2→2 (0.5), 2→3 (0.5), 3→3 (0.5); dropped: 1→1, 1→2.
	if sub.M() != 5 {
		t.Errorf("sub.M = %d, want 5", sub.M())
	}
	// Relabel check: old 2 → new 1, old 3 → new 2.
	src, w := sub.InNeighbors(mapping[3])
	if len(src) != 2 {
		t.Fatalf("new node for 3 should keep 2 in-edges, got %d", len(src))
	}
	_ = w
}

func TestInducedSubgraphErrors(t *testing.T) {
	g := figure1(t)
	if _, _, err := g.InducedSubgraph([]int32{0, 0}); err == nil {
		t.Error("expected error for duplicate nodes")
	}
	if _, _, err := g.InducedSubgraph([]int32{99}); err == nil {
		t.Error("expected error for out-of-range node")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := figure1(t)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round-trip mismatch: N %d/%d M %d/%d", g2.N(), g.N(), g2.M(), g.M())
	}
	for v := int32(0); v < int32(g.N()); v++ {
		s1, w1 := g.InNeighbors(v)
		s2, w2 := g2.InNeighbors(v)
		if len(s1) != len(s2) {
			t.Fatalf("node %d in-degree mismatch", v)
		}
		for i := range s1 {
			if s1[i] != s2[i] || w1[i] != w2[i] {
				t.Fatalf("node %d edge %d: (%d,%v) vs (%d,%v)", v, i, s1[i], w1[i], s2[i], w2[i])
			}
		}
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	cases := []string{
		"",                        // empty
		"3\n",                     // bad header
		"2 1\n0 1\n",              // short edge line
		"2 1\nx 1 0.5\n",          // bad source
		"2 1\n0 y 0.5\n",          // bad target
		"2 1\n0 1 z\n",            // bad weight
		"2 2\n0 1 0.5\n",          // edge count mismatch
		"2 1\n0 7 0.5\n",          // out of range
		"0 0\n",                   // zero nodes
		"2 1\n0 1 0.5\n1 0 0.5\n", // too many edges
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# generated\n2 1\n\n0 1 0.5\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Errorf("M = %d, want 1", g.M())
	}
}

func BenchmarkInEdgeSampler(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	edges, err := PreferentialAttachment(10000, 8, r)
	if err != nil {
		b.Fatal(err)
	}
	g, err := FromEdgesColumnStochastic(10000, edges)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewInEdgeSampler(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(int32(i%10000), r)
	}
}

// checkSamplerNext chains Next through data's decoded batches and holds
// every step to a sampler built from scratch, bit for bit.
func checkSamplerNext(t *testing.T, data []byte) {
	g, batches, ok := decodeBatches(data)
	if !ok {
		return
	}
	s, err := NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, batch := range batches {
		ng, changed, err := g.ApplyDeltas(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		got, err := s.Next(ng, changed)
		if err != nil {
			t.Fatalf("batch %d: Next: %v", i, err)
		}
		want, err := NewInEdgeSampler(ng)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.alias, want.alias) {
			t.Fatalf("batch %d %v: alias differs from a rebuilt sampler", i, batch)
		}
		for j := range want.prob {
			if math.Float64bits(got.prob[j]) != math.Float64bits(want.prob[j]) {
				t.Fatalf("batch %d %v: prob[%d] = %v, rebuilt %v", i, batch, j, got.prob[j], want.prob[j])
			}
		}
		s, g = got, ng
	}
}

// TestSamplerNextMatchesRebuild: on random column-stochastic graphs and
// batch sequences (adds, sets to a new or the same weight, removals down to
// the self-loop, several ops on one column), the sampler Next derives
// equals NewInEdgeSampler of the mutated graph.
func TestSamplerNextMatchesRebuild(t *testing.T) {
	for _, data := range decodedCases(300) {
		checkSamplerNext(t, data)
	}
	g, err := FromEdgesColumnStochastic(4, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := g.ApplyDeltas([]Delta{{Op: DeltaAdd, From: 0, To: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(ng, nil); err == nil {
		t.Error("Next copied the rows of a column that gained edges")
	}
	if _, err := s.Next(ng, []int32{2, 2}); err == nil {
		t.Error("Next took a changed list that does not ascend")
	}
}

func FuzzSamplerNext(f *testing.F) {
	for _, data := range decodedCases(16) {
		f.Add(data)
	}
	f.Fuzz(checkSamplerNext)
}
