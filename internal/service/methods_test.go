package service_test

import (
	"math"
	"slices"
	"testing"

	"ovm/internal/core"
	"ovm/internal/methods"
	"ovm/internal/opinion"
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

// requireLibraryAnswer checks a select-seeds response no artifact served
// against the direct library call on sys, the system of the epoch it
// answered at: methods.Select's seeds and the Float64bits of their exact
// value.
func requireLibraryAnswer(t testing.TB, sys *opinion.System, req *service.SelectSeedsRequest, got *service.SelectSeedsResponse) {
	t.Helper()
	score, err := voting.ParseScore(req.Score.Name, req.Score.P, req.Score.Omega, sys.R())
	if err != nil {
		t.Fatal(err)
	}
	prob := &core.Problem{Sys: sys, Target: req.Target, Horizon: req.Horizon, K: req.K, Score: score}
	opts := methods.Options{Seed: req.Seed, Parallelism: req.Parallelism}
	opts.RS.FixedTheta = req.Theta
	want, _, err := methods.Select(req.Method, prob, opts)
	if err != nil {
		t.Fatalf("%s: library: %v", req.Method, err)
	}
	wantValue, err := core.EvaluateExact(sys, req.Target, req.Horizon, score, want, req.Parallelism)
	if err != nil {
		t.Fatal(err)
	}
	if got.FromIndex || !slices.Equal(got.Seeds, want) || math.Float64bits(got.ExactValue) != math.Float64bits(wantValue) {
		t.Fatalf("%s %s P=%d: daemon (%v, %v, fromIndex=%v), library (%v, %v)",
			req.Method, req.Score.Name, req.Parallelism, got.Seeds, got.ExactValue, got.FromIndex, want, wantValue)
	}
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
			req := selectReq(method, "plurality", tdTheta)
			req.K, req.Parallelism = k, par
			got, serr := svc.SelectSeeds(req)
			if serr != nil {
				t.Fatalf("%s P=%d: daemon: %v", method, par, serr)
			}
			if got.Method != method {
				t.Errorf("%s P=%d: response says method %q", method, par, got.Method)
			}
			requireLibraryAnswer(t, sys, req, got)
		}
	}
}
