package walks_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ovm/internal/graph"
	"ovm/internal/opinion"
	"ovm/internal/postings"
	"ovm/internal/sampling"
	"ovm/internal/walks"
)

// repairWorld builds a random column-stochastic graph with per-node
// stubbornness, applies a small mutation batch, and returns both versions
// plus the touched-node mask (edge destinations and the stub-changed node).
func repairWorld(t *testing.T, n int, seed int64) (g, ng *graph.Graph, stub, stub2 []float64, touched []bool) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	edges, err := graph.Gnp(n, 5.0/float64(n), r)
	if err != nil {
		t.Fatal(err)
	}
	g, err = graph.FromEdgesColumnStochastic(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	stub = make([]float64, n)
	for v := range stub {
		stub[v] = 0.1 + 0.8*r.Float64()
	}
	deltas := []graph.Delta{
		{Op: graph.DeltaAdd, From: 3, To: 17, W: 1},
		{Op: graph.DeltaAdd, From: int32(n - 1), To: 4, W: 0.7},
		{Op: graph.DeltaSet, From: 17, To: 30, W: 2},
	}
	var changed []int32
	ng, changed, err = g.ApplyDeltas(deltas)
	if err != nil {
		t.Fatal(err)
	}
	stub2 = append([]float64(nil), stub...)
	stub2[11] = 0.95
	touched = make([]bool, n)
	for _, v := range changed {
		touched[v] = true
	}
	touched[11] = true
	return g, ng, stub, stub2, touched
}

func snap(t *testing.T, set *walks.Set) *walks.Snapshot {
	t.Helper()
	s, err := set.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRepairMatchesFullRegeneration(t *testing.T) {
	const n, horizon = 200, 12
	g, ng, stub, stub2, touched := repairWorld(t, n, 7)
	smp, err := graph.NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	smp2, err := graph.NewInEdgeSampler(ng)
	if err != nil {
		t.Fatal(err)
	}
	str := sampling.Stream{Seed: 9, ID: 101}
	plan := make([]int32, n)
	for v := range plan {
		plan[v] = 8
	}
	old, err := walks.Generate(smp, stub, horizon, plan, str, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := walks.Generate(smp2, stub2, horizon, plan, str, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 0} {
		repaired, stats, err := walks.Repair(old, smp2, stub2, touched, str, par)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snap(t, repaired), snap(t, fresh)) {
			t.Fatalf("P=%d: repaired set differs from full regeneration", par)
		}
		if stats.OwnersInvalidated == 0 || stats.OwnersInvalidated == stats.Owners {
			t.Fatalf("P=%d: expected partial invalidation, got %d of %d owners", par, stats.OwnersInvalidated, stats.Owners)
		}
		if stats.Walks != old.NumWalks() {
			t.Fatalf("P=%d: stats cover %d walks, want %d", par, stats.Walks, old.NumWalks())
		}
	}
}

func TestRepairSampledMatchesFullRegeneration(t *testing.T) {
	const n, horizon, theta = 200, 10, 4000
	g, ng, stub, stub2, touched := repairWorld(t, n, 8)
	smp, err := graph.NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	smp2, err := graph.NewInEdgeSampler(ng)
	if err != nil {
		t.Fatal(err)
	}
	str := sampling.Stream{Seed: 21, ID: 211}
	old, err := walks.GenerateSampled(smp, stub, horizon, theta, str, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := walks.GenerateSampled(smp2, stub2, horizon, theta, str, 0)
	if err != nil {
		t.Fatal(err)
	}
	repaired, stats, err := walks.Repair(old, smp2, stub2, touched, str, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap(t, repaired), snap(t, fresh)) {
		t.Fatal("repaired sketch set differs from full regeneration")
	}
	if stats.WalksInvalidated == 0 || stats.WalksInvalidated == stats.Walks {
		t.Fatalf("expected partial invalidation, got %d of %d walks", stats.WalksInvalidated, stats.Walks)
	}
}

// TestRepairUntouchedSharesSet: a batch whose walk mask is all false for a
// target — opinion-only, or touching only another candidate — leaves every
// owner valid, so the repair returns its input set itself, writes nothing
// and allocates nothing.
func TestRepairUntouchedSharesSet(t *testing.T) {
	const n = 200
	g, _, stub, _, _ := repairWorld(t, n, 7)
	gr, err := walks.NewGround(&opinion.Candidate{G: g, Stub: stub})
	if err != nil {
		t.Fatal(err)
	}
	untouched := make([]bool, n)
	for _, d := range []walks.Draw{{Family: walks.FamilyRW, Seed: 9, Lambda: 8}, {Family: walks.FamilyRS, Seed: 9, Theta: 1500}} {
		set, err := d.Generate(nil, gr, 12, 0)
		if err != nil {
			t.Fatal(err)
		}
		set.EnsureIndex()
		got, stats, err := d.Repair(nil, gr, set, untouched, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != set || stats.CopyBytes != 0 || stats.OwnersInvalidated != 0 {
			t.Fatalf("theta=%d: untouched repair returned a new set (%v) or wrote %d bytes", d.Theta, got != set, stats.CopyBytes)
		}
		if allocs := testing.AllocsPerRun(20, func() { _, _, _ = d.Repair(nil, gr, set, untouched, 0) }); allocs != 0 {
			t.Fatalf("theta=%d: untouched repair allocates %v times", d.Theta, allocs)
		}
	}
}

// TestRebaseKeepsOnlyLaterOwners: a set repaired twice, rebased onto a
// reload of the set after the first repair, holds the same walks and
// postings as before, and its overlay is exactly the one repairing the
// reload itself would leave: the second repair's owners. A set folded since
// the reloaded one is left as it is.
func TestRebaseKeepsOnlyLaterOwners(t *testing.T) {
	const n = 200
	g, ng, stub, stub2, touched := repairWorld(t, n, 7)
	stub3 := append([]float64(nil), stub2...)
	stub3[60] = 0.5
	touched2 := make([]bool, n)
	touched2[60] = true
	ground := func(g *graph.Graph, stub []float64) *walks.Ground {
		gr, err := walks.NewGround(&opinion.Candidate{G: g, Stub: stub})
		if err != nil {
			t.Fatal(err)
		}
		return gr
	}
	for _, d := range []walks.Draw{{Family: walks.FamilyRW, Seed: 9, Lambda: 8}, {Family: walks.FamilyRS, Seed: 9, Theta: 1500}} {
		set, err := d.Generate(nil, ground(g, stub), 12, 0)
		if err != nil {
			t.Fatal(err)
		}
		set.EnsureIndex()
		at, _, err := d.RepairOverlay(nil, ground(ng, stub2), set, touched, 0)
		if err != nil {
			t.Fatal(err)
		}
		next, _, err := d.RepairOverlay(nil, ground(ng, stub3), at, touched2, 0)
		if err != nil {
			t.Fatal(err)
		}
		base, err := walks.FromSnapshot(ng, snap(t, at))
		if err != nil {
			t.Fatal(err)
		}
		if err := base.AdoptIndex(walks.StoredIndex(at)); err != nil {
			t.Fatal(err)
		}
		want, _, err := d.RepairOverlay(nil, ground(ng, stub3), base, touched2, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := next.Rebase(base, at)
		if !reflect.DeepEqual(snap(t, got), snap(t, next)) || !reflect.DeepEqual(walks.StoredIndex(got).Compact.ToCSR(), walks.StoredIndex(next).Compact.ToCSR()) {
			t.Fatalf("theta=%d: the rebased set stores other walks than the one it rebased", d.Theta)
		}
		if got.HeapBytes() != want.HeapBytes() || got.HeapBytes() >= next.HeapBytes() {
			t.Fatalf("theta=%d: rebased overlay %d bytes, repairing the reload leaves %d, before the rebase %d",
				d.Theta, got.HeapBytes(), want.HeapBytes(), next.HeapBytes())
		}
		if at.Rebase(base, at).HeapBytes() != base.HeapBytes() {
			t.Fatalf("theta=%d: rebasing the checkpointed set itself kept an overlay", d.Theta)
		}
		// A later repair moves in two steps as in one: onto the move of
		// the set it repaired.
		stub4 := append([]float64(nil), stub3...)
		stub4[120] = 0.25
		touched3 := make([]bool, n)
		touched3[120] = true
		last, _, err := d.RepairOverlay(nil, ground(ng, stub4), next, touched3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if last == next {
			t.Fatalf("theta=%d: node 120 is on no walk", d.Theta)
		}
		once, twice := last.Rebase(base, at), last.Rebase(got, next)
		if !reflect.DeepEqual(snap(t, twice), snap(t, last)) || !reflect.DeepEqual(walks.StoredIndex(twice).Compact.ToCSR(), walks.StoredIndex(last).Compact.ToCSR()) {
			t.Fatalf("theta=%d: a set moved in two steps stores other walks than the one it moved", d.Theta)
		}
		if twice.HeapBytes() != once.HeapBytes() {
			t.Fatalf("theta=%d: moved in two steps the overlay is %d bytes, in one %d", d.Theta, twice.HeapBytes(), once.HeapBytes())
		}
		// A set folded since at keeps the walks it owns.
		all := make([]bool, n)
		for v := range all {
			all[v] = true
		}
		folded, st, err := d.Repair(nil, ground(ng, stub4), next, all, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Folded {
			t.Fatalf("theta=%d: regenerating every owner did not fold", d.Theta)
		}
		if folded.Rebase(base, at) != folded {
			t.Fatalf("theta=%d: a set folded since the checkpoint was moved onto it", d.Theta)
		}
	}
}

func TestRepairRejectsSeededAndMismatchedInputs(t *testing.T) {
	const n = 50
	g, ng, stub, stub2, touched := repairWorld(t, n, 9)
	smp, err := graph.NewInEdgeSampler(g)
	if err != nil {
		t.Fatal(err)
	}
	smp2, err := graph.NewInEdgeSampler(ng)
	if err != nil {
		t.Fatal(err)
	}
	str := sampling.Stream{Seed: 1, ID: 101}
	plan := make([]int32, n)
	for v := range plan {
		plan[v] = 2
	}
	set, err := walks.Generate(smp, stub, 6, plan, str, 1)
	if err != nil {
		t.Fatal(err)
	}
	seeded := set.Clone()
	seeded.AddSeed(0, nil)
	if _, _, err := walks.Repair(seeded, smp2, stub2, touched, str, 1); err == nil {
		t.Fatal("repair of a seeded set must fail")
	}
	if _, _, err := walks.Repair(set, smp2, stub2[:n-1], touched, str, 1); err == nil {
		t.Fatal("repair with short stub must fail")
	}
	if _, _, err := walks.Repair(set, smp2, stub2, touched[:n-1], str, 1); err == nil {
		t.Fatal("repair with short touched mask must fail")
	}
}

// TestAdoptIndexRejectsCorruptPostings: the loader's check adopts a set's
// stored postings and refuses ones its walks do not produce, among them an
// item out of range — a posting past the last walk, and a first item
// garbled to 0xff 0xff — which the encoding alone cannot tell from a valid
// one.
func TestAdoptIndexRejectsCorruptPostings(t *testing.T) {
	const n = 200
	g, _, stub, _, _ := repairWorld(t, n, 3)
	gr, err := walks.NewGround(&opinion.Candidate{G: g, Stub: stub})
	if err != nil {
		t.Fatal(err)
	}
	set, err := walks.Draw{Family: walks.FamilyRS, Seed: 4, Theta: 600}.Generate(nil, gr, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	set.EnsureIndex()
	stored := snap(t, set)
	adopt := func(is *walks.IndexSnapshot) error {
		fresh, err := walks.FromSnapshot(g, stored)
		if err != nil {
			t.Fatal(err)
		}
		return fresh.AdoptIndex(is)
	}
	if err := adopt(walks.StoredIndex(set)); err != nil {
		t.Fatalf("intact postings refused: %v", err)
	}

	// The last node with postings gets one more, past the last walk.
	csr := walks.StoredIndex(set).Compact.ToCSR()
	last := n - 1
	for csr.Off[last+1] == csr.Off[last] {
		last--
	}
	e := postings.NewEncoder(n, true, postings.DefaultBlockSize, 0)
	for v := range n {
		lo, hi := csr.Off[v], csr.Off[v+1]
		e.Add(csr.Item[lo:hi], csr.Pos[lo:hi])
		if v == last {
			e.Add([]int32{int32(set.NumWalks())}, []int32{0})
		}
		e.End()
	}
	past, chunks := e.Finish()
	past.Data = slices.Concat(chunks...)

	garbled := walks.StoredIndex(set)
	garbled.Compact.Data[0], garbled.Compact.Data[1] = 0xff, 0xff

	short := walks.StoredIndex(set)
	short.Compact.Off = short.Compact.Off[:n]

	for name, is := range map[string]*walks.IndexSnapshot{
		"item out of range":  {Compact: past},
		"garbled first item": garbled,
		"too few nodes":      short,
		"no postings":        {},
	} {
		if err := adopt(is); err == nil {
			t.Errorf("%s: AdoptIndex accepted it", name)
		}
	}
}
