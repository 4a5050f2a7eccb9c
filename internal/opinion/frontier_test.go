package opinion_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ovm/internal/datasets"
	"ovm/internal/graph"
	"ovm/internal/obs"
	"ovm/internal/opinion"
)

// hopInEdges is the test's own reachability: mass[s] is the number of
// in-edges owned by the nodes within s out-hops of a seed, and nodes[s] their
// count. A frontier run that never falls back performs Σ_{s=1..t} mass[s]
// edge updates.
func hopInEdges(c *opinion.Candidate, seeds []int32, t int) (mass, nodes []int64) {
	dist := make([]int, c.G.N())
	for v := range dist {
		dist[v] = -1
	}
	var queue []int32
	for _, s := range seeds {
		if dist[s] < 0 {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	mass, nodes = make([]int64, t+1), make([]int64, t+1)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for s := dist[v]; s <= t; s++ {
			mass[s] += int64(c.G.InDegree(v))
			nodes[s]++
		}
		if dist[v] == t {
			continue
		}
		c.G.OutEdges(v, func(u int32, _ float64) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return mass, nodes
}

// TestDiffuseFromMatchesDiffuseBitwise: on the three dataset families, for
// horizons 0, 1, 3 and 10, the frontier run over the seedless trajectory
// returns the bits of the dense serial diffusion at every node — for empty
// seed sets, duplicated seeds, seeds nothing points at, small random sets and
// sets large enough to saturate the graph; at P = 1, 2 and 4; with the
// saturation guard as shipped, forced on (dense from step 1), forced off
// (never dense) and tripping after the first frontier step. With the guard
// off the edge-step and node counters equal the test's own hop count.
func TestDiffuseFromMatchesDiffuseBitwise(t *testing.T) {
	ctx := context.Background()
	cands := map[string]*opinion.Candidate{"sparse-with-sources": sparseCandidate(t, 5000)}
	for _, name := range []string{"twitter-distancing-like", "dblp-like", "yelp-like"} {
		d, err := datasets.ByName(name, datasets.Options{N: 5000, Seed: 11}) // three node chunks
		if err != nil {
			t.Fatal(err)
		}
		cands[name] = d.Sys.Candidate(d.DefaultTarget)
	}
	for name, c := range cands {
		n := c.G.N()
		r := rand.New(rand.NewSource(5))
		seedSets := [][]int32{nil, {7, 7, 7}, {int32(n - 1), 0, int32(n - 1), 0}}
		for v := int32(0); v < int32(n); v++ {
			if c.G.InDegree(v) == 0 { // only the raw graph has one
				seedSets = append(seedSets, []int32{v}, []int32{v, 3, v})
				break
			}
		}
		for _, size := range []int{1, 8, 40, n / 4} {
			set := make([]int32, size)
			for i := range set {
				set[i] = int32(r.Intn(n))
			}
			seedSets = append(seedSets, set)
		}
		for _, horizon := range []int{0, 1, 3, 10} {
			for _, par := range []int{1, 2, 4} {
				traj, err := opinion.Trajectory(ctx, c, horizon, nil, par)
				if err != nil {
					t.Fatal(err)
				}
				if len(traj) != horizon+1 || &traj[0][0] != &c.Init[0] {
					t.Fatalf("%s t=%d: %d rows, row 0 aliases Init: %v", name, horizon, len(traj), &traj[0][0] == &c.Init[0])
				}
				for s, row := range traj {
					if at := bitDiff(row, opinion.OpinionsAt(c, s, nil)); at >= 0 {
						t.Fatalf("%s t=%d P=%d: trajectory row %d differs from the dense diffusion at node %d", name, horizon, par, s, at)
					}
				}
				for i, seeds := range seedSets {
					want := opinion.OpinionsAt(c, horizon, seeds)
					mass, nodes := hopInEdges(c, seeds, horizon)
					guards := map[string]int64{"on": -1, "off": math.MaxInt64, "after-step-1": mass[min(1, horizon)]}
					for guard, limit := range guards {
						label := fmt.Sprintf("%s t=%d P=%d seeds#%d guard=%s", name, horizon, par, i, guard)
						before := obs.CaptureCosts()
						got, err := opinion.DiffuseFromGuarded(ctx, c, traj, seeds, par, limit)
						if err != nil {
							t.Fatal(err)
						}
						if at := bitDiff(got, want); at >= 0 {
							t.Fatalf("%s: node %d is %v, dense %v", label, at, got[at], want[at])
						}
						cost := obs.CaptureCosts().Delta(before)
						wantEdges, wantNodes, wantFallbacks := int64(0), int64(0), int64(0)
						for s := 1; s <= horizon; s++ {
							if mass[s] > limit {
								wantEdges += int64(horizon-s+1) * int64(c.G.M())
								wantFallbacks = 1
								break
							}
							wantEdges += mass[s]
							wantNodes += nodes[s]
						}
						if cost["ovm_opinion_diffusions_total"] != 1 || cost["ovm_opinion_edge_steps_total"] != wantEdges ||
							cost["ovm_opinion_frontier_nodes_total"] != wantNodes || cost["ovm_opinion_dense_fallbacks_total"] != wantFallbacks {
							t.Fatalf("%s: cost %v, want 1 diffusion, %d edge steps, %d frontier nodes, %d fallbacks", label, cost, wantEdges, wantNodes, wantFallbacks)
						}
					}
					got, err := opinion.DiffuseFrom(ctx, c, traj, seeds, par)
					if err != nil {
						t.Fatal(err)
					}
					if at := bitDiff(got, want); at >= 0 {
						t.Fatalf("%s t=%d P=%d seeds#%d: node %d is %v, dense %v", name, horizon, par, i, at, got[at], want[at])
					}
				}
			}
		}
		// A done context stops the trajectory build and both kinds of step.
		traj, err := opinion.Trajectory(ctx, c, 3, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		done, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := opinion.Trajectory(done, c, 3, nil, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled trajectory returned %v", name, err)
		}
		for _, limit := range []int64{-1, math.MaxInt64} {
			if _, err := opinion.DiffuseFromGuarded(done, c, traj, []int32{1}, 1, limit); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled frontier run (limit %d) returned %v", name, limit, err)
			}
		}
	}
}

// sparseCandidate is a raw, unnormalised candidate in which about a fifth of
// the nodes have no in-edge (a validated system gives those a self-loop).
func sparseCandidate(t *testing.T, n int) *opinion.Candidate {
	t.Helper()
	r := rand.New(rand.NewSource(23))
	edges := make([]graph.Edge, 3*n/2)
	for i := range edges {
		edges[i] = graph.Edge{From: int32(r.Intn(n)), To: int32(r.Intn(n)), W: r.Float64()}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	c := &opinion.Candidate{Name: "sparse", G: g, Init: make([]float64, n), Stub: make([]float64, n)}
	for v := range c.Init {
		c.Init[v], c.Stub[v] = r.Float64(), r.Float64()
	}
	return c
}

// bitDiff returns the first index at which a and b differ in their float64
// bits, or −1.
func bitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}
