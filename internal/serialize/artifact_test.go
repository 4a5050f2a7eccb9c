package serialize_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"slices"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/postings"
	"ovm/internal/rwalk"
	"ovm/internal/serialize"
	"ovm/internal/service"
	"ovm/internal/sketch"
	"ovm/internal/walks"
)

// The parameters of pinnedIndex's two artifacts.
const (
	pinTarget  = 1
	pinHorizon = 4
	pinSeed    = int64(17)
	pinTheta   = 96
)

// pinnedIndexDigest is the SHA-256 of the file pinnedIndex writes (177 862
// bytes), recorded while the index kept a separate artifact type per list
// and the writer one loop per list. The types and the writer may change;
// these bytes may not.
const pinnedIndexDigest = "be15e79be7c34183ab8ce18fe519c93b58697c47e0ad8cfdd0a8a67e4f30bf98"

// pinnedIndex builds a small index with a θ sketch set and a λ walk set, as
// ovmd -build-index does: both live, with their postings.
func pinnedIndex(t *testing.T) *serialize.Index {
	t.Helper()
	d, err := datasets.YelpLike(datasets.Options{N: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
		Target: pinTarget, Horizon: pinHorizon, Seed: pinSeed, SketchTheta: pinTheta, IncludeWalks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestIndexBytesPinned: the file written from the live sets, and the file
// written again from its own read-back (the snapshot branch), both hash to
// the digest recorded before the artifact types were merged. The read-back
// artifacts carry the draws the live methods use, and a draw filed in the
// other list is refused.
func TestIndexBytesPinned(t *testing.T) {
	idx := pinnedIndex(t)
	live := writeV3(t, idx)
	back, err := serialize.ReadIndex(bytes.NewReader(live))
	if err != nil {
		t.Fatal(err)
	}
	again := writeV3(t, back)
	for _, f := range []struct {
		name string
		data []byte
	}{{"written from the live sets", live}, {"loaded and rewritten", again}} {
		if sum := sha256.Sum256(f.data); hex.EncodeToString(sum[:]) != pinnedIndexDigest {
			t.Errorf("index %s: sha256 %x (%d bytes), want %s", f.name, sum, len(f.data), pinnedIndexDigest)
		}
	}

	lambda, err := rwalk.CumulativeLambda(rwalk.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sketches) != 1 || len(back.Walks) != 1 {
		t.Fatalf("read back %d sketch and %d walk artifacts, want 1 and 1", len(back.Sketches), len(back.Walks))
	}
	if got, want := back.Sketches[0].Draw, sketch.Draw(pinSeed, pinTheta); got != want {
		t.Errorf("sketch artifact draw %+v, want sketch.Draw = %+v", got, want)
	}
	if got, want := back.Walks[0].Draw, rwalk.Draw(pinSeed, lambda); got != want {
		t.Errorf("walk artifact draw %+v, want rwalk.Draw = %+v", got, want)
	}

	otherFamily := *back.Sketches[0]
	otherFamily.Family = walks.FamilyRW
	bothCounts := *back.Walks[0]
	bothCounts.Theta = pinTheta
	for _, c := range []struct {
		name string
		idx  *serialize.Index
	}{
		{"sketch set in the walk list", &serialize.Index{Sys: back.Sys, Walks: back.Sketches}},
		{"walk set in the sketch list", &serialize.Index{Sys: back.Sys, Sketches: back.Walks}},
		{"sketch list draw of the RW family", &serialize.Index{Sys: back.Sys, Sketches: []*serialize.WalkArtifact{&otherFamily}}},
		{"walk list draw with a theta", &serialize.Index{Sys: back.Sys, Walks: []*serialize.WalkArtifact{&bothCounts}}},
	} {
		if err := c.idx.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
		if err := serialize.WriteIndexV3(io.Discard, c.idx, serialize.V3Options{}); err == nil {
			t.Errorf("%s: WriteIndexV3 wrote it", c.name)
		}
	}
}

// TestValidateRejectsForeignHorizon: an artifact that declares a horizon
// other than the one its walks were drawn at is refused wherever an index
// is checked — written from a live set, validated after a read, loaded from
// a file whose manifest says so, and registered with a service — instead of
// serving queries at the declared horizon from walks of another.
func TestValidateRejectsForeignHorizon(t *testing.T) {
	idx := pinnedIndex(t)
	idx.Sketches[0].Horizon = pinHorizon + 1
	if err := serialize.WriteIndexV3(io.Discard, idx, serialize.V3Options{}); err == nil {
		t.Error("wrote a live sketch set drawn at horizon 4 declared at horizon 5")
	}
	idx.Sketches[0].Horizon = pinHorizon

	data := writeV3(t, idx)
	back, err := serialize.ReadIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	back.Walks[0].Horizon = pinHorizon - 1
	if err := back.Validate(); err == nil {
		t.Error("validated a walk set snapshot drawn at horizon 4 declared at horizon 3")
	}
	if err := service.New(service.Config{}).AddIndex("d", back); err == nil {
		t.Error("a service registered a walk set drawn at horizon 4 declared at horizon 3")
	}

	// In the file: the sketch artifact's entry is its seed, target, declared
	// horizon and θ, then its walk set's horizon.
	manifest := v3TableEntry(data, 0)
	off, length := binary.LittleEndian.Uint64(manifest[0:]), binary.LittleEndian.Uint64(manifest[8:])
	payload := data[off : off+length]
	entry := binary.LittleEndian.AppendUint64(nil, uint64(pinSeed))
	for _, v := range []uint32{pinTarget, pinHorizon, pinTheta, pinHorizon} {
		entry = binary.LittleEndian.AppendUint32(entry, v)
	}
	at := bytes.Index(payload, entry)
	if at < 0 {
		t.Fatal("no sketch artifact entry found in the manifest")
	}
	binary.LittleEndian.PutUint32(payload[at+12:], pinHorizon+1)
	binary.LittleEndian.PutUint32(manifest[20:], crc32.ChecksumIEEE(payload))
	fixV3TableCRC(data)
	if _, err := serialize.ReadIndex(bytes.NewReader(data)); err == nil {
		t.Error("read a file whose sketch artifact declares horizon 5 over walks drawn at 4")
	}
}

// shardedIndexDigest is the SHA-256 of the file TestIndexBytesPinnedSharded
// writes (1 406 922 bytes), recorded while the walk fold appended shard
// outputs one by one and the postings counting sort ran as one serial pass.
// The build may run on any number of cores; these bytes may not move.
const shardedIndexDigest = "eb767bfda58af7a5b99eff34dc555ab7b0651d090432b986f1d154b89beae991"

// TestIndexBytesPinnedSharded: an index over a world large enough that
// walk generation, and so the fold, cuts its owners into at least four
// shards and the postings counting sort cuts each set's walks into at least
// four, written from builds at P = 1, 2 and 4, hashes to the digest
// recorded before either phase ran in parallel.
func TestIndexBytesPinnedSharded(t *testing.T) {
	d, err := datasets.YelpLike(datasets.Options{N: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		idx, err := service.BuildIndex(d.Sys, service.BuildOptions{
			Target: pinTarget, Horizon: 10, Seed: pinSeed, SketchTheta: 16384, IncludeWalks: true, Parallelism: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range slices.Concat(idx.Sketches, idx.Walks) {
			set := a.Live
			// Generation cuts one shard per 64 owners.
			if set.NumOwners() <= 3*64 {
				t.Fatalf("artifact has %d owners: fewer than four fold shards", set.NumOwners())
			}
			if s := postings.NumShards(set.NumWalks(), set.N()); s < 4 {
				t.Fatalf("artifact of %d walks: the counting sort cuts %d shards, want >= 4", set.NumWalks(), s)
			}
		}
		data := writeV3(t, idx)
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != shardedIndexDigest {
			t.Errorf("P=%d: index sha256 %x (%d bytes), want %s", p, sum, len(data), shardedIndexDigest)
		}
	}
}
