package service_test

import (
	"math"
	"slices"
	"testing"

	"ovm/internal/core"
	"ovm/internal/methods"
	"ovm/internal/service"
	"ovm/internal/voting"
)

// libraryOptions is the direct library call's configuration for a request
// with the fixture's seed: what the daemon promises to answer like.
func libraryOptions(theta, parallelism int) methods.Options {
	opts := methods.Options{Seed: tdSeed, Parallelism: parallelism}
	opts.RS.FixedTheta = theta
	return opts
}

// librarySelector is the from-scratch min-seeds selector of a proposed
// method, the reference for the index-served probes.
func librarySelector(method string, base core.Problem, theta int) core.SeedSelector {
	sel, err := methods.Selector(method, base, libraryOptions(theta, 1))
	if err != nil {
		panic(err)
	}
	return sel
}

// TestEveryMethodMatchesLibrary is the serving contract without an index:
// for every name in the one method list, at P = 1 and 4, select-seeds
// returns the seeds of the direct library call and a Float64bits-equal exact
// value. The daemon adds nothing to a method but a cache in front of it.
func TestEveryMethodMatchesLibrary(t *testing.T) {
	sys, _ := testWorld(t)
	svc := service.New(service.Config{CacheSize: -1})
	defer svc.Close()
	if err := svc.AddDataset("world", sys); err != nil {
		t.Fatal(err)
	}
	const k = 3
	for _, method := range methods.Names {
		for _, par := range []int{1, 4} {
			prob := &core.Problem{Sys: sys, Target: 0, Horizon: tdHorizon, K: k, Score: voting.Plurality{}}
			want, _, err := methods.Select(method, prob, libraryOptions(tdTheta, par))
			if err != nil {
				t.Fatalf("%s P=%d: library: %v", method, par, err)
			}
			wantValue, err := core.EvaluateExact(sys, 0, tdHorizon, voting.Plurality{}, want, par)
			if err != nil {
				t.Fatal(err)
			}
			req := selectReq(method, "plurality", tdTheta)
			req.K, req.Parallelism = k, par
			got, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatalf("%s P=%d: daemon: %v", method, par, serr)
			}
			if got.FromIndex || got.Method != method {
				t.Errorf("%s P=%d: response says method %q, fromIndex %v", method, par, got.Method, got.FromIndex)
			}
			if !slices.Equal(got.Seeds, want) || math.Float64bits(got.ExactValue) != math.Float64bits(wantValue) {
				t.Errorf("%s P=%d: daemon (%v, %v), library (%v, %v)", method, par, got.Seeds, got.ExactValue, want, wantValue)
			}
		}
	}
}
