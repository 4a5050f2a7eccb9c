package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"ovm/internal/dynamic"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
	"ovm/internal/service"
)

// checkpointDigest is the SHA-256 of the file TestCheckpointBytesPinned
// writes (386 441 bytes), recorded while every repair rebuilt the alias sampler of the
// mutated graph from scratch, ApplyDeltas looked every node up in a map and
// the overlay postings merge walked every node.
const checkpointDigest = "8bd3b0f5bee0e82d2c59ca769d5b212ed8ab078fcf2b6be3e91a3c706e8038bc"

// pinnedStream is a fixed stream of 60 batches over sys: edge inserts,
// re-weights (new edges and existing ones, several on one column),
// removals (every fifteenth batch empties a column down to its self-loop),
// and opinion and stubbornness drift on every candidate. It is drawn
// against a shadow replay, so every removal names an edge that exists.
func pinnedStream(t *testing.T, sys *opinion.System) []dynamic.Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(36))
	n, r := int32(sys.N()), sys.R()
	node := func() int32 { return rng.Int31n(n) }
	var out []dynamic.Batch
	for i := range 60 {
		g := sys.Candidate(0).G
		var b dynamic.Batch
		removed := map[[2]int32]bool{}
		if i%15 == 14 {
			v := node()
			src, _ := g.InNeighbors(v)
			for _, u := range src {
				removed[[2]int32{u, v}] = true
				b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: u, To: v})
			}
		}
		for range 1 + rng.Intn(4) {
			switch k := rng.Intn(6); k {
			case 0:
				b = append(b, dynamic.Op{Kind: dynamic.OpAddEdge, From: node(), To: node(), W: 0.1 + 2*rng.Float64()})
			case 1:
				to := node()
				for range 2 {
					b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: node(), To: to, W: 0.1 + rng.Float64()})
				}
			case 2:
				v := node()
				src, _ := g.InNeighbors(v)
				b = append(b, dynamic.Op{Kind: dynamic.OpSetWeight, From: src[rng.Intn(len(src))], To: v, W: 0.5})
			case 3:
				es := g.Edges()
				e := es[rng.Intn(len(es))]
				if !removed[[2]int32{e.From, e.To}] {
					removed[[2]int32{e.From, e.To}] = true
					b = append(b, dynamic.Op{Kind: dynamic.OpRemoveEdge, From: e.From, To: e.To})
				}
			case 4:
				b = append(b, dynamic.Op{Kind: dynamic.OpSetOpinion, Cand: rng.Intn(r), Node: node(), Value: rng.Float64()})
			case 5:
				b = append(b, dynamic.Op{Kind: dynamic.OpSetStubbornness, Cand: rng.Intn(r), Node: node(), Value: rng.Float64()})
			}
		}
		if len(b) == 0 {
			b = dynamic.Batch{{Kind: dynamic.OpSetOpinion, Cand: 0, Node: node(), Value: 0.5}}
		}
		next, _, err := dynamic.ApplySystem(sys, b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		sys = next
		out = append(out, b)
	}
	return out
}

// TestCheckpointBytesPinned: the checkpoint ExportIndex writes after a
// fixed 60-batch stream, each batch its own repair, hashes to the digest
// recorded before repairs carried the sampler across epochs. If it fails, a
// repair no longer equals the from-scratch path bit for bit: undo, do not
// refresh the digest.
func TestCheckpointBytesPinned(t *testing.T) {
	_, idx := testWorld(t)
	svc := newTestService(t, idx)
	for i, b := range pinnedStream(t, idx.Sys) {
		if _, serr := svc.ApplyUpdates(&service.UpdateRequest{Dataset: "world", Ops: b}); serr != nil {
			t.Fatalf("batch %d: %v", i, serr)
		}
	}
	exported, serr := svc.ExportIndex("world")
	if serr != nil {
		t.Fatal(serr)
	}
	if exported.BaseEpoch != 60 {
		t.Fatalf("exported at epoch %d, want 60", exported.BaseEpoch)
	}
	var buf bytes.Buffer
	if err := serialize.WriteIndexV3(&buf, exported, serialize.V3Options{}); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) != checkpointDigest {
		t.Errorf("checkpoint sha256 %x (%d bytes), want %s", sum, buf.Len(), checkpointDigest)
	}
}
