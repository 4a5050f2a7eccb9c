package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/voting"
)

// hashInts and the helpers below feed a result into h field by field, as
// fixed-width little-endian words: floats by their bits, slices led by their
// length.
func hashInts(h hash.Hash, xs ...int64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	for _, x := range xs {
		hashInts(h, int64(math.Float64bits(x)))
	}
}

func hashSeeds(h hash.Hash, seeds []int32) {
	hashInts(h, int64(len(seeds)))
	for _, s := range seeds {
		hashInts(h, int64(s))
	}
}

func hashGreedy(h hash.Hash, res *GreedyResult) {
	if res == nil {
		h.Write([]byte("nil"))
		return
	}
	hashSeeds(h, res.Seeds)
	hashInts(h, int64(len(res.Gains)))
	hashFloats(h, res.Gains...)
	hashFloats(h, res.Value)
	hashInts(h, int64(res.Evaluations))
}

// pinnedDigest runs every greedy DM selection on three dataset families
// (n = 400, seed 7, t = 5, k = 4) at engine parallelism par and hashes the
// results.
func pinnedDigest(t *testing.T, par int) string {
	h := sha256.New()
	const n, seed, horizon, k = 400, 7, 5, 4
	scores := []voting.Score{
		voting.Plurality{},
		voting.PApproval{P: 2},
		voting.Positional{P: 2, Omega: []float64{0, 0}},
		voting.Positional{P: 2, Omega: []float64{0.7, 0.2}},
		voting.Copeland{},
	}
	for _, name := range []string{"yelp-like", "twitter-distancing-like", "dblp-like"} {
		d, err := datasets.ByName(name, datasets.Options{N: n, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q := d.DefaultTarget
		for _, score := range scores {
			p := &Problem{Sys: d.Sys, Target: q, Horizon: horizon, K: k, Score: score}
			var res *SandwichResult
			if _, ok := score.(voting.Copeland); ok {
				res, err = SandwichCopeland(p, par)
			} else {
				res, err = SandwichPositional(p, par)
			}
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s/%s", name, score.Name())
			hashGreedy(h, res.SU)
			hashGreedy(h, res.SL)
			hashGreedy(h, res.SF)
			hashSeeds(h, res.Seeds)
			hashFloats(h, res.Value, res.FofSU, res.FofSL, res.FofSF, res.UBofSU, res.Ratio)
			h.Write([]byte(res.Chosen))
		}
		plain, lazy := cumulativeGreedy(t, &Problem{Sys: d.Sys, Target: q, Horizon: horizon, K: k, Score: voting.Cumulative{}}, par)
		hashGreedy(h, plain)
		hashGreedy(h, lazy)

		B, err := NewInstance(nil, d.Sys, q, horizon, par)
		if err != nil {
			t.Fatal(err)
		}
		noSeed, err := B.matrix(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cov, err := GreedyCoverage(d.Sys.Candidate(q).G, horizon, FavorableSet(noSeed, q, 1), 0.37, k, par)
		if err != nil {
			t.Fatal(err)
		}
		hashGreedy(h, cov)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cumulativeGreedy runs plain greedy and CELF on p, each on a fresh DM
// objective.
func cumulativeGreedy(t *testing.T, p *Problem, par int) (plain, lazy *GreedyResult) {
	var err error
	if plain, err = Greedy(nil, dmObjective(t, p, par), p.K); err != nil {
		t.Fatal(err)
	}
	if lazy, err = GreedyCELF(nil, dmObjective(t, p, par), p.K); err != nil {
		t.Fatal(err)
	}
	return plain, lazy
}

// pinnedGreedyDigest is pinnedDigest recorded before the DM objectives and
// the lazy loops were merged into one Objective and one GreedyCELF. If it
// moves, a selection moved: find out why, do not refresh it.
const pinnedGreedyDigest = "94eedbac2740278ac4653f4471a5b0fb47a02229accc19feec29acb2d2a21600"

// TestGreedyResultsPinned holds every field of the DM greedy results (the
// sandwich's SU/SL/SF and its verdict, plain and CELF greedy on cumulative,
// and GreedyCoverage with a scale) to a digest, serial and on the pool. The
// ω = (0, 0) score makes the UB's scale 0, so the coverage greedy picks by
// reach count alone, and its all-zero F and LB rounds pin the heap's tie
// order.
func TestGreedyResultsPinned(t *testing.T) {
	for _, par := range []int{1, 0} {
		if got := pinnedDigest(t, par); got != pinnedGreedyDigest {
			t.Errorf("P=%d: digest %s, want %s", par, got, pinnedGreedyDigest)
		}
	}
}
