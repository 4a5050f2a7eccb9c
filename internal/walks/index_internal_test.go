package walks

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ovm/internal/graph"
	"ovm/internal/postings"
	"ovm/internal/sampling"
)

// StoredIndex is the set's postings in the form an index file stores them:
// CompactPostings with its payload joined into Data.
func StoredIndex(set *Set) *IndexSnapshot {
	c, chunks := set.CompactPostings()
	if c == nil {
		return nil
	}
	cp := *c
	cp.Data = slices.Concat(chunks...)
	return &IndexSnapshot{Compact: &cp}
}

// TestRepairIndexMatchesRebuild pins the overlay contract through a chain of
// repairs: after every step the set's postings — base less the replaced
// walks, merged with the overlay's — and the stored (compact) postings must decode to
// a from-scratch counting-sort build over the folded walks, and the folded
// walks a from-scratch generation. The chain takes empty, single-node,
// sparse and dense touched masks, so it repairs on top of an overlay,
// regenerates owners the overlay already replaced, and folds.
func TestRepairIndexMatchesRebuild(t *testing.T) {
	const n, horizon = 300, 6
	r := rand.New(rand.NewSource(21))
	b := graph.NewBuilder(n)
	for i := 0; i < 3*n; i++ {
		_ = b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)), r.Float64()+0.05)
	}
	g, err := b.BuildColumnStochastic()
	if err != nil {
		t.Fatal(err)
	}
	smp, err := graph.NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	stub := make([]float64, n)
	for v := range stub {
		stub[v] = 0.4 + 0.5*r.Float64()
	}
	plan := make([]int32, n)
	for i := range plan {
		plan[i] = int32(3 + r.Intn(5))
	}
	str := sampling.Stream{Seed: 33, ID: 77}
	set, err := Generate(smp, stub, horizon, plan, str, 1)
	if err != nil {
		t.Fatal(err)
	}
	set.EnsureIndex()

	masks := []func(v int) bool{
		func(int) bool { return false },
		func(v int) bool { return v == 17 },
		func(v int) bool { return v == 40 },
		func(v int) bool { return v == 17 || v == 41 },
		func(v int) bool { return v == 101 },
		func(v int) bool { return v%17 == 3 },
		func(v int) bool { return v == 250 },
		func(v int) bool { return v%2 == 0 },
		func(v int) bool { return v == 5 },
	}
	var overlaid, superseded, folded int
	for step, hit := range masks {
		touched := make([]bool, n)
		for v := 0; v < n; v++ {
			if hit(v) {
				touched[v] = true
				stub[v] = 0.4 + 0.5*r.Float64()
			}
		}
		prev := set
		var stats RepairStats
		if set, stats, err = Repair(prev, smp, stub, touched, str, 1); err != nil {
			t.Fatal(err)
		}
		if stats.OwnersInvalidated == 0 {
			if set != prev || stats.CopyBytes != 0 {
				t.Fatalf("step %d: a repair that invalidates nothing must return its input and write nothing", step)
			}
			continue
		}
		switch {
		case stats.Folded:
			folded++
			if set.ov != nil || set.region != nil {
				t.Fatalf("step %d: a fold must leave a heap base and no overlay", step)
			}
		case set.ov == nil:
			t.Fatalf("step %d: repair without a fold left no overlay", step)
		default:
			overlaid++
			if &set.nodes[0] != &prev.nodes[0] || set.idx != prev.idx {
				t.Fatalf("step %d: repair copied the base", step)
			}
			if prev.ov != nil && set.ov.walks < prev.ov.walks+stats.WalksInvalidated {
				superseded++
			}
		}

		fresh, err := Generate(smp, stub, horizon, plan, str, 1)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := set.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(snap.Nodes, fresh.nodes) || !slices.Equal(snap.Off, fresh.off) {
			t.Fatalf("step %d: folded walks differ from a fresh generation", step)
		}
		want := postings.Build(n, snap.Off, snap.Nodes, true, 0)
		if !reflect.DeepEqual(StoredIndex(set).Compact.ToCSR(), want) {
			t.Fatalf("step %d: folded index differs from a rebuild", step)
		}
		for u := range n {
			var ws, ps []int32
			it := set.postings(int32(u))
			for bw, br := it.block(); len(bw) > 0; bw, br = it.block() {
				ws, ps = append(ws, bw...), append(ps, br...)
			}
			lo, hi := want.Off[u], want.Off[u+1]
			if !slices.Equal(ws, want.Item[lo:hi]) || !slices.Equal(ps, want.Pos[lo:hi]) {
				t.Fatalf("step %d: postings of node %d differ from a rebuild", step, u)
			}
		}
		for w := range int32(set.NumWalks()) {
			if !slices.Equal(set.walk(w), snap.Nodes[snap.Off[w]:snap.Off[w+1]]) {
				t.Fatalf("step %d: walk %d reads differently from its folded copy", step, w)
			}
		}
	}
	if overlaid < 3 || superseded == 0 || folded == 0 {
		t.Fatalf("chain exercised %d overlay repairs (%d superseding), %d folds; want ≥3, ≥1, ≥1", overlaid, superseded, folded)
	}
}
