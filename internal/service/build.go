package service

import (
	"fmt"

	"ovm/internal/opinion"
	"ovm/internal/rwalk"
	"ovm/internal/serialize"
	"ovm/internal/sketch"
	"ovm/internal/walks"
)

// BuildOptions selects which artifacts an index precomputes. Every
// artifact is tied to (Target, Horizon, Seed): a query reuses an artifact
// only when those parameters match, which is exactly the condition under
// which reuse is byte-identical to recomputation.
type BuildOptions struct {
	// Target is the campaigning candidate the artifacts serve.
	Target int
	// Horizon is the timestamp t the walks are generated for.
	Horizon int
	// Seed is the root random seed, matching the request-level Seed.
	Seed int64
	// SketchTheta precomputes an RS sketch set with θ walks (0 = skip).
	SketchTheta int
	// IncludeWalks precomputes the RW method's cumulative-score walk set
	// (Theorem 10's per-node λ under the default rwalk configuration).
	IncludeWalks bool
	// Parallelism caps the engine worker pool during the build (0 =
	// GOMAXPROCS). It never changes the produced artifacts.
	Parallelism int
}

// BuildIndex precomputes the serving artifacts for sys. Each is drawn the
// way the live method draws it (sketch.Draw, rwalk.Draw), so an artifact
// loaded later is bit-identical to what a from-scratch query would generate.
func BuildIndex(sys *opinion.System, o BuildOptions) (*serialize.Index, error) {
	if sys == nil {
		return nil, fmt.Errorf("service: nil system")
	}
	if o.Target < 0 || o.Target >= sys.R() {
		return nil, fmt.Errorf("service: target %d out of range [0,%d)", o.Target, sys.R())
	}
	if o.Horizon < 0 {
		return nil, fmt.Errorf("service: horizon must be >= 0, got %d", o.Horizon)
	}
	if o.SketchTheta < 0 {
		return nil, fmt.Errorf("service: sketch theta must be >= 0")
	}
	idx := &serialize.Index{Sys: sys}
	var draws []walks.Draw
	if o.SketchTheta > 0 {
		draws = append(draws, sketch.Draw(o.Seed, o.SketchTheta))
	}
	if o.IncludeWalks {
		lambda, err := rwalk.CumulativeLambda(rwalk.Config{})
		if err != nil {
			return nil, err
		}
		draws = append(draws, rwalk.Draw(o.Seed, lambda))
	}
	var gr *walks.Ground
	if len(draws) > 0 {
		var err error
		if gr, err = walks.NewGround(sys.Candidate(o.Target)); err != nil {
			return nil, err
		}
	}
	for _, d := range draws {
		set, err := d.Generate(nil, gr, o.Horizon, o.Parallelism)
		if err != nil {
			return nil, err
		}
		storeWalks(idx, d, o.Target, o.Horizon, set)
	}
	return idx, nil
}

// storeWalks appends a pristine walk set to idx as the serialize artifact
// type its draw maps to (sampled starts are a sketch artifact, planned ones a
// walk artifact), live, with its postings index: v3 streams both out, so
// loaders adopt the index instead of re-running the counting sort.
func storeWalks(idx *serialize.Index, d walks.Draw, target, horizon int, set *walks.Set) {
	set.EnsureIndex()
	if d.Theta > 0 {
		idx.Sketches = append(idx.Sketches, &serialize.SketchArtifact{
			Seed: d.Seed, Target: target, Horizon: horizon, Theta: d.Theta, Live: set,
		})
	} else {
		idx.Walks = append(idx.Walks, &serialize.WalkArtifact{
			Seed: d.Seed, Target: target, Horizon: horizon, Lambda: d.Lambda, Live: set,
		})
	}
}
