package service_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/walks"
)

// churnWorld is a sketch-only index on a sparse 6 000-node graph: large
// enough that 64 churn-shaped batches keep every overlay under its fold
// share, so the overlay ledger below accounts for every byte. It is written
// as a v3 file, and returned with its path.
func churnWorld(t *testing.T) (*serialize.Index, string) {
	t.Helper()
	d, err := datasets.TwitterDistancingLike(datasets.Options{N: 6000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{Horizon: 10, Seed: tdSeed, SketchTheta: 4096})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, idx, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "churn.ovmidx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return idx, path
}

// churnBatches mirrors the benchmark's paced writer: two set_opinion, one
// set_stubbornness, and an edge op cycling add_edge, set_weight and
// remove_edge over the edge it added, on random nodes and candidates.
func churnBatches(seed int64, n, count int) []dynamic.Batch {
	r := rand.New(rand.NewSource(seed))
	vec := func(kind dynamic.OpKind) dynamic.Op {
		return dynamic.Op{Kind: kind, Cand: r.Intn(2), Node: int32(r.Intn(n)), Value: r.Float64()}
	}
	var edge [2]int32
	out := make([]dynamic.Batch, count)
	for i := range out {
		b := dynamic.Batch{vec(dynamic.OpSetOpinion), vec(dynamic.OpSetOpinion), vec(dynamic.OpSetStubbornness)}
		switch i % 3 {
		case 0:
			from, to := int32(r.Intn(n)), int32(r.Intn(n-1))
			if to >= from {
				to++
			}
			edge = [2]int32{from, to}
			b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge, From: from, To: to, W: 0.1 + r.Float64()})
		case 1:
			b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: edge[0], To: edge[1], W: 0.1 + r.Float64()})
		case 2:
			b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: edge[0], To: edge[1]})
		}
		out[i] = b
	}
	return out
}

// overlayLedger is a test's own account of one walk artifact's overlay,
// kept from walk contents and batches alone: which owners repairs have
// replaced since load, and what the overlay's layout weighs. The layout
// (internal/walks): one 64-bit bitmap word per 64 walks; a 56-byte owner
// entry (first walk id, then offsets and nodes slice headers) per replaced
// owner; per replaced owner, its walks' int32 nodes and walks+1 int32
// offsets; and raw postings, n+1 int32 offsets and an int32 walk id and
// position per posting.
type overlayLedger struct {
	replaced []bool // per owner
}

const ovOwnerEntryBytes = 56

// byOwner returns a pristine set's walks grouped by owner.
func byOwner(set *walks.Set) [][][]int32 {
	c := set.Clone()
	out := make([][][]int32, set.NumOwners())
	w := 0
	for i := range out {
		for range set.OwnerWalkCount(i) {
			out[i] = append(out[i], c.WalkNodes(w))
			w++
		}
	}
	return out
}

// walkBytes is what an owner's walks weigh in an overlay: their nodes and
// one offset per walk plus one.
func walkBytes(ws [][]int32) int64 {
	b := 4 * int64(len(ws)+1)
	for _, walk := range ws {
		b += 4 * int64(len(walk))
	}
	return b
}

// repair checks one repair of an artifact, old → repaired under the walk
// mask touched, against the rule that an owner is invalid iff one of its
// walks lists a touched node, and returns the bytes the new overlay must
// have written: the regenerated owners' walks, and the bitmap, owner table
// and postings, which a repair writes whole.
func (l *overlayLedger) repair(t *testing.T, old, repaired *walks.Set, touched []bool) int64 {
	t.Helper()
	if l.replaced == nil {
		l.replaced = make([]bool, old.NumOwners())
	}
	var invalid []int
	for i, ws := range byOwner(old) {
		for _, walk := range ws {
			if slices.ContainsFunc(walk, func(u int32) bool { return touched[u] }) {
				invalid = append(invalid, i)
				break
			}
		}
	}
	if len(invalid) == 0 {
		if repaired != old {
			t.Fatal("a repair that invalidates no owner must hand back the artifact itself")
		}
		return 0
	}
	owners := byOwner(repaired)
	var written int64
	for _, i := range invalid {
		l.replaced[i] = true
		written += walkBytes(owners[i])
	}
	total, walks := l.weigh(repaired)
	return written + total - walks
}

// weigh returns what the ledger says the set's overlay weighs (0 when no
// owner has been replaced), and the part of it that is walks.
func (l *overlayLedger) weigh(set *walks.Set) (total, walks int64) {
	var owners, postings int64
	for i, ws := range byOwner(set) {
		if l.replaced == nil || !l.replaced[i] {
			continue
		}
		owners++
		walks += walkBytes(ws)
		for _, walk := range ws {
			seen := map[int32]bool{}
			for _, u := range walk {
				seen[u] = true
			}
			postings += int64(len(seen))
		}
	}
	if owners == 0 {
		return 0, 0
	}
	total = 8*int64((set.NumWalks()+63)/64) + ovOwnerEntryBytes*owners + walks + 4*int64(set.N()+1) + 8*postings
	return total, walks
}

// TestRepairCopyBytesCountOverlays: ovm_repair_copy_bytes_total moves, per
// batch, by exactly the bytes of the overlays the test's own ledger says
// the repair had to write, and an opinion-only batch writes nothing and
// hands every artifact on to the next epoch as is.
func TestRepairCopyBytesCountOverlays(t *testing.T) {
	idx, _ := churnWorld(t)
	svc := newTestService(t, idx)
	n := idx.Sys.N()
	batches := churnBatches(11, n, 8)
	batches[3] = dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: 17, Value: 0.3}}
	sys := idx.Sys
	ledgers := make([]overlayLedger, len(svc.WalkSets("world")))
	var wrote int64
	for i, b := range batches {
		next, cs, err := dynamic.ApplySystem(sys, b)
		if err != nil {
			t.Fatal(err)
		}
		sys = next
		before := svc.WalkSets("world")
		cost0 := obs.CaptureCosts()
		if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatal(serr)
		}
		cost := obs.CaptureCosts().Delta(cost0)
		after := svc.WalkSets("world")
		var want int64
		for a := range before {
			want += ledgers[a].repair(t, before[a], after[a], cs.WalkMask(n, 0))
		}
		if got := cost["ovm_repair_copy_bytes_total"]; got != want {
			t.Fatalf("batch %d: ovm_repair_copy_bytes_total moved by %d, the new overlays weigh %d", i, got, want)
		}
		if got := cost["ovm_repair_overlay_folds_total"]; got != 0 {
			t.Fatalf("batch %d: %d folds; this world stays under the fold share", i, got)
		}
		if i == 3 && want != 0 {
			t.Fatalf("opinion-only batch wrote %d bytes", want)
		}
		wrote += want
	}
	if wrote == 0 {
		t.Fatal("no batch invalidated an owner; the test checks nothing")
	}
	t.Logf("%d batches wrote %d overlay bytes", len(batches), wrote)
}
