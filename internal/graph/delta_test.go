package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomStochastic builds a column-stochastic random graph for delta tests.
func randomStochastic(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges, err := Gnp(n, 4.0/float64(n), r)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromEdgesColumnStochastic(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestApplyDeltasUnchangedColumnsBitIdentical(t *testing.T) {
	g := randomStochastic(t, 60, 1)
	deltas := []Delta{
		{Op: DeltaAdd, From: 3, To: 7, W: 0.5},
		{Op: DeltaSet, From: 1, To: 9, W: 2},
	}
	ng, changed, err := g.ApplyDeltas(deltas)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{7, 9}; len(changed) != 2 || changed[0] != want[0] || changed[1] != want[1] {
		t.Fatalf("changed = %v, want %v", changed, want)
	}
	if !ng.IsColumnStochastic() {
		t.Fatal("result must be column-stochastic")
	}
	isChanged := map[int32]bool{7: true, 9: true}
	for v := int32(0); v < int32(g.N()); v++ {
		if isChanged[v] {
			continue
		}
		os, ow := g.InNeighbors(v)
		ns, nw := ng.InNeighbors(v)
		if len(os) != len(ns) {
			t.Fatalf("node %d in-degree changed %d → %d", v, len(os), len(ns))
		}
		for i := range os {
			if os[i] != ns[i] || math.Float64bits(ow[i]) != math.Float64bits(nw[i]) {
				t.Fatalf("node %d in-edge %d changed: (%d,%v) → (%d,%v)", v, i, os[i], ow[i], ns[i], nw[i])
			}
		}
	}
	if v := ng.CheckColumnStochastic(1e-9); v >= 0 {
		t.Fatalf("node %d not normalized after delta", v)
	}
}

func TestApplyDeltasSemantics(t *testing.T) {
	// 3 nodes; node 2 has in-edges from 0 (0.25) and 2 (0.75).
	g, err := FromEdgesColumnStochastic(3, []Edge{
		{0, 2, 1}, {2, 2, 3}, {0, 1, 1}, {1, 0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Add 1→2 with raw weight 1: raw column {0.25, 0.75, 1} → sum 2.
	ng, _, err := g.ApplyDeltas([]Delta{{Op: DeltaAdd, From: 1, To: 2, W: 1}})
	if err != nil {
		t.Fatal(err)
	}
	src, w := ng.InNeighbors(2)
	if len(src) != 3 || src[0] != 0 || src[1] != 1 || src[2] != 2 {
		t.Fatalf("in-neighbors of 2 = %v, want [0 1 2]", src)
	}
	for i, want := range []float64{0.125, 0.5, 0.375} {
		if math.Abs(w[i]-want) > 1e-12 {
			t.Fatalf("weight[%d] = %v, want %v", i, w[i], want)
		}
	}
	// Removing the only in-edge of node 1 yields a self-loop.
	ng2, changed, err := g.ApplyDeltas([]Delta{{Op: DeltaRemove, From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != 1 {
		t.Fatalf("changed = %v, want [1]", changed)
	}
	src, w = ng2.InNeighbors(1)
	if len(src) != 1 || src[0] != 1 || w[0] != 1 {
		t.Fatalf("emptied column must get a self-loop, got src=%v w=%v", src, w)
	}
}

func TestApplyDeltasOutCSRConsistent(t *testing.T) {
	g := randomStochastic(t, 40, 2)
	ng, _, err := g.ApplyDeltas([]Delta{
		{Op: DeltaAdd, From: 0, To: 5, W: 1},
		{Op: DeltaAdd, From: 39, To: 5, W: 0.5},
		{Op: DeltaSet, From: 2, To: 11, W: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The out-CSR must describe the same edge multiset as the in-CSR, in
	// (From, To) order — rebuild from the edge list and compare.
	rebuilt, err := FromEdges(ng.N(), ng.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.M() != ng.M() {
		t.Fatalf("edge counts differ: %d vs %d", rebuilt.M(), ng.M())
	}
	for v := int32(0); v < int32(ng.N()); v++ {
		as, aw := ng.InNeighbors(v)
		bs, bw := rebuilt.InNeighbors(v)
		if len(as) != len(bs) {
			t.Fatalf("node %d: in-degrees differ", v)
		}
		for i := range as {
			if as[i] != bs[i] || aw[i] != bw[i] {
				t.Fatalf("node %d in-edge %d differs from rebuilt graph", v, i)
			}
		}
	}
}

func TestApplyDeltasErrors(t *testing.T) {
	g := randomStochastic(t, 10, 3)
	cases := []struct {
		name  string
		delta Delta
	}{
		{"from out of range", Delta{Op: DeltaAdd, From: -1, To: 0, W: 1}},
		{"to out of range", Delta{Op: DeltaAdd, From: 0, To: 10, W: 1}},
		{"zero weight", Delta{Op: DeltaAdd, From: 0, To: 1, W: 0}},
		{"negative weight", Delta{Op: DeltaSet, From: 0, To: 1, W: -2}},
		{"nan weight", Delta{Op: DeltaSet, From: 0, To: 1, W: math.NaN()}},
		{"inf weight", Delta{Op: DeltaAdd, From: 0, To: 1, W: math.Inf(1)}},
		{"remove missing edge", Delta{Op: DeltaRemove, From: 7, To: 3}},
		{"unknown op", Delta{Op: DeltaOp(99), From: 0, To: 1, W: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// "remove missing edge" needs the edge to actually be missing.
			if tc.name == "remove missing edge" {
				found := false
				g.InEdges(3, func(src int32, _ float64) {
					if src == 7 {
						found = true
					}
				})
				if found {
					t.Skip("edge 7→3 exists in this fixture")
				}
			}
			if _, _, err := g.ApplyDeltas([]Delta{tc.delta}); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
		})
	}
}

// decodeBatches turns fuzz bytes into a column-stochastic graph and a
// sequence of delta batches over it. data[0] sets n, data[1] seeds the
// graph's 3n random raw edges, and every further 4 bytes (k, x, y, w) is
// one op on column y%n:
//
//	k%6 == 0  add x%n → y with raw weight (w+1)/64
//	k%6 == 1  set x%n → y to (w+1)/64, inserting it if absent
//	k%6 == 2  set an edge the column has to its current weight
//	k%6 == 3  remove an edge the column has
//	k%6 == 4  remove every edge of the column, leaving it to its self-loop
//	k%6 == 5  end the batch
//
// Which edge "an edge the column has" is follows the batch's earlier ops,
// so every decoded batch applies without error.
func decodeBatches(data []byte) (*Graph, [][]Delta, bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	n := 2 + int(data[0]%30)
	r := rand.New(rand.NewSource(int64(data[1])))
	b := NewBuilder(n)
	for range 3 * n {
		_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), r.Float64()+0.01)
	}
	g0, err := b.BuildColumnStochastic()
	if err != nil {
		return nil, nil, false
	}
	g := g0 // the graph the batch being decoded applies to
	var batches [][]Delta
	var batch []Delta
	cols := map[int32][]int32{} // the sources a column has within the batch
	has := func(v int32) []int32 {
		if _, ok := cols[v]; !ok {
			src, _ := g.InNeighbors(v)
			cols[v] = slices.Clone(src)
		}
		return cols[v]
	}
	insert := func(u, v int32) {
		if src := has(v); !slices.Contains(src, u) {
			cols[v] = append(src, u)
		}
	}
	for ops := data[2:]; len(ops) >= 4 && len(batches) < 8; ops = ops[4:] {
		k, x, v, w := ops[0]%6, int32(ops[1])%int32(n), int32(ops[2])%int32(n), (float64(ops[3])+1)/64
		switch k {
		case 0:
			batch = append(batch, Delta{Op: DeltaAdd, From: x, To: v, W: w})
			insert(x, v)
		case 1:
			batch = append(batch, Delta{Op: DeltaSet, From: x, To: v, W: w})
			insert(x, v)
		case 2:
			src, wts := g.InNeighbors(v)
			i := int(x) % len(src)
			batch = append(batch, Delta{Op: DeltaSet, From: src[i], To: v, W: wts[i]})
			insert(src[i], v)
		case 3:
			if src := has(v); len(src) > 0 {
				i := int(x) % len(src)
				batch = append(batch, Delta{Op: DeltaRemove, From: src[i], To: v})
				cols[v] = slices.Delete(src, i, i+1)
			}
		case 4:
			for _, u := range has(v) {
				batch = append(batch, Delta{Op: DeltaRemove, From: u, To: v})
			}
			cols[v] = cols[v][:0]
		case 5:
			if len(batch) > 0 {
				batches, batch, cols = append(batches, batch), nil, map[int32][]int32{}
				if g, _, err = g.ApplyDeltas(batches[len(batches)-1]); err != nil {
					panic(fmt.Sprintf("a decoded batch failed: %v", err))
				}
			}
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return g0, batches, true
}

// decodedCases returns count random byte strings for decodeBatches: the
// deterministic tests' inputs and the fuzzers' seed corpus.
func decodedCases(count int) [][]byte {
	r := rand.New(rand.NewSource(36))
	out := make([][]byte, count)
	for i := range out {
		out[i] = make([]byte, 2+4*(1+r.Intn(40)))
		r.Read(out[i])
	}
	return out
}

// referenceApply is ApplyDeltas as its doc states it, over g's edge list:
// each touched column starts from its current weights, sources ascending;
// an add sums into the edge or appends it, a set overwrites or appends it,
// a remove deletes it; a column left empty gets a weight-1 self-loop, any
// other is divided by its sum in column order. Builder assembles the CSR.
func referenceApply(g *Graph, deltas []Delta) (*Graph, error) {
	type in struct {
		src int32
		w   float64
	}
	cols := map[int32][]in{}
	for _, d := range deltas {
		if _, ok := cols[d.To]; !ok {
			cols[d.To] = []in{}
			g.InEdges(d.To, func(src int32, w float64) { cols[d.To] = append(cols[d.To], in{src, w}) })
		}
		col := cols[d.To]
		i := slices.IndexFunc(col, func(e in) bool { return e.src == d.From })
		switch {
		case d.Op == DeltaRemove && i < 0:
			return nil, fmt.Errorf("remove of missing edge (%d,%d)", d.From, d.To)
		case d.Op == DeltaRemove:
			col = slices.Delete(col, i, i+1)
		case i < 0:
			col = append(col, in{d.From, d.W})
		case d.Op == DeltaAdd:
			col[i].w += d.W
		default:
			col[i].w = d.W
		}
		cols[d.To] = col
	}
	b := NewBuilder(g.N())
	for _, e := range g.Edges() {
		if _, touched := cols[e.To]; !touched {
			if err := b.AddEdge(e.From, e.To, e.W); err != nil {
				return nil, err
			}
		}
	}
	for v, col := range cols {
		if len(col) == 0 {
			col = []in{{v, 1}}
		}
		sum := 0.0
		for _, e := range col {
			sum += e.w
		}
		for _, e := range col {
			if err := b.AddEdge(e.src, v, e.w/sum); err != nil {
				return nil, err
			}
		}
	}
	return b.Build()
}

// csrDiff names the first array in which a and b differ, weights compared
// bit for bit, or returns "".
func csrDiff(a, b CSRArrays) string {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	switch {
	case a.N != b.N:
		return "n"
	case !slices.Equal(a.InStart, b.InStart):
		return "inStart"
	case !slices.Equal(a.InSrc, b.InSrc):
		return "inSrc"
	case !bits(a.InW, b.InW):
		return "inW"
	case !slices.Equal(a.OutStart, b.OutStart):
		return "outStart"
	case !slices.Equal(a.OutDst, b.OutDst):
		return "outDst"
	case !bits(a.OutW, b.OutW):
		return "outW"
	}
	return ""
}

// TestApplyDeltasMatchesBuilder: on random graphs and batch sequences,
// ApplyDeltas' in- and out-CSR equal, bit for bit, the graph Builder
// assembles from the edge list the batch's documented semantics leave, and
// its changed list is the batch's destinations, sorted.
func TestApplyDeltasMatchesBuilder(t *testing.T) {
	for c, data := range decodedCases(300) {
		g, batches, _ := decodeBatches(data)
		for i, batch := range batches {
			ng, changed, err := g.ApplyDeltas(batch)
			if err != nil {
				t.Fatalf("case %d batch %d: %v", c, i, err)
			}
			want, err := referenceApply(g, batch)
			if err != nil {
				t.Fatalf("case %d batch %d: reference: %v", c, i, err)
			}
			if d := csrDiff(ng.Arrays(), want.Arrays()); d != "" {
				t.Fatalf("case %d batch %d %v: %s differs from the reference", c, i, batch, d)
			}
			var dsts []int32
			for _, d := range batch {
				dsts = append(dsts, d.To)
			}
			slices.Sort(dsts)
			if dsts = slices.Compact(dsts); !slices.Equal(changed, dsts) {
				t.Fatalf("case %d batch %d: changed %v, want %v", c, i, changed, dsts)
			}
			g = ng
		}
	}
}
