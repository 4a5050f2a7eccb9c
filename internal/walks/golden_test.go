package walks_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"ovm/internal/core"
	"ovm/internal/im"
	"ovm/internal/rwalk"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// digestI32s hashes the arrays, each prefixed by its length, little-endian.
func digestI32s(arrays ...[]int32) string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range arrays {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(a)))
		h.Write(buf[:])
		for _, v := range a {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenBytesAcrossCommits pins what every other identity test leaves
// free: the bytes a (family, seed) draws, across commits. Repair vs rebuild,
// index vs live and P=1 vs P=4 all compare two paths of one commit, so a
// change that moved a substream family id consistently would pass them all
// and make every index file on disk disagree with live regeneration. The
// constants were recorded at commit 623d0fb (the parent of the PR that named
// the families), by the same calls spelled with that commit's literals 101,
// 103, 211, 223+⌊x⌋ and 701. A failure here means index files written before
// the change no longer match what the methods draw (or, for 701, that IMM's
// IC/LT seeds moved): that is a format break, not a constant to refresh.
func TestGoldenBytesAcrossCommits(t *testing.T) {
	const seed = int64(42)
	w := newEquivWorldSized(t, 5, 40, 6, 300, false)
	gr, err := walks.NewGround(w.sys.Candidate(0))
	if err != nil {
		t.Fatal(err)
	}
	setDigest := func(d walks.Draw) string {
		set, err := d.Generate(nil, gr, w.horizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := set.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return digestI32s([]int32{int32(s.Horizon)}, s.Nodes, s.Off, s.OwnerNodes, s.OwnerOff)
	}
	// The RR sets flattened as the recorded digest read them: members, then
	// offsets.
	col := im.NewRRCollection(w.sys.Candidate(0).G, im.IC, im.RRStream(seed), 1)
	col.Add(50)
	rrNodes, rrOff := []int32{}, []int32{0}
	for i := 0; i < col.NumSets(); i++ {
		rrNodes = append(rrNodes, col.Set(i)...)
		rrOff = append(rrOff, int32(len(rrNodes)))
	}
	for _, c := range []struct{ name, got, want string }{
		{"planned set, family 101", setDigest(rwalk.Draw(seed, 6)), "db527bcdf563df67fdea4c939dab96650eae1a89fbcd7bd3bfd8c42884d0b971"},
		{"sampled set, family 211", setDigest(sketch.Draw(seed, 300)), "1cd5f3b2b6fa4b331febe42446cc60c59ebe1f1ba2690a9ecb8bfcb2f1480cd4"},
		{"RR collection, family 701", digestI32s(rrNodes, rrOff), "b7dd9d52c23e5d784635f1504743a2ea2eb615ee79f2a6e936ec86b3d6af482b"},
	} {
		if c.got != c.want {
			t.Errorf("%s: sha256 %s, recorded %s", c.name, c.got, c.want)
		}
	}

	prob := func(score voting.Score) *core.Problem {
		return &core.Problem{Sys: w.sys, Target: 0, Horizon: w.horizon, K: 3, Score: score}
	}
	check := func(name string, seeds []int32, value float64, wantSeeds []int32, wantBits uint64) {
		t.Helper()
		if !slices.Equal(seeds, wantSeeds) || math.Float64bits(value) != wantBits {
			t.Errorf("%s: seeds %v value %#x, recorded %v %#x", name, seeds, math.Float64bits(value), wantSeeds, wantBits)
		}
	}
	// RW over the cumulative plan (101), then over a γ* plan (103 → 101).
	rw, err := rwalk.Select(prob(voting.Cumulative{}), rwalk.Config{Seed: seed, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	check("RW cumulative", rw.Seeds, rw.EstimatedValue, []int32{32, 39, 16}, 0x40361bf6c3fab34c)
	rwp, err := rwalk.Select(prob(voting.Plurality{}), rwalk.Config{Seed: seed, Parallelism: 1, MaxWalksPerNode: 60})
	if err != nil {
		t.Fatal(err)
	}
	check("RW plurality", rwp.Seeds, rwp.EstimatedValue, []int32{32, 12, 0}, 0x4037000000000000)
	if rwp.TotalWalks != 1845 {
		t.Errorf("RW plurality: the pilot's plan makes %d walks, recorded 1845", rwp.TotalWalks)
	}
	// RS at a fixed θ (211), then through EstimateOPT (223+⌊x⌋ → 211).
	rs, err := sketch.SelectWithTheta(prob(voting.Plurality{}), 300, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	check("RS plurality", rs.Seeds, rs.EstimatedValue, []int32{32, 21, 29}, 0x4039777777777778)
	rsc, err := sketch.Select(prob(voting.Cumulative{}), sketch.Config{Seed: seed, Parallelism: 1, MaxTheta: 2000})
	if err != nil {
		t.Fatal(err)
	}
	check("RS cumulative", rsc.Seeds, rsc.EstimatedValue, []int32{32, 33, 39}, 0x40366c696c8c65fa)
	if bits := math.Float64bits(rsc.OPTLowerBound); bits != 0x40338c9a86b000c0 {
		t.Errorf("RS cumulative: OPT lower bound %#x, recorded 0x40338c9a86b000c0", bits)
	}
}
