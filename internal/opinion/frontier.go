package opinion

import (
	"context"
	"slices"

	"ovm/internal/obs"
)

// Frontier accounting: how many node updates the frontier steps performed,
// and how many runs the saturation guard handed to the dense loop. A graph on
// which most runs fall back defeats the kernel; its runs then cost the dense
// t·m again.
var (
	frontierNodes = obs.NewCounter("ovm_opinion_frontier_nodes_total",
		"Node updates performed by frontier FJ steps (the nodes within s hops of a seed, summed over the steps s)")
	denseFallbacks = obs.NewCounter("ovm_opinion_dense_fallbacks_total",
		"Frontier FJ runs that switched to dense steps because the touched nodes owned too many of the in-edges")
)

// frontierDenseDivisor sets the saturation guard: a frontier step runs only
// while the touched nodes own at most m/frontierDenseDivisor in-edges, a
// property of the graph and the seeds alone. Measured at n = 12 000, t = 10,
// 25 and 50 random seeds: on dblp-like, where two hops reach 19–29% of the
// in-edges and three reach 81–91%, a frontier edge costs 2.1 dense edges once
// every node is touched (the touched nodes are visited in reach order, not in
// CSR order), so a frontier step over half of m costs what the dense step
// costs and beyond that it loses; on twitter-distancing-like the touched
// share levels off at 25–32% and never trips the guard; on yelp-like the
// seeds' first hop already owns 51–59% and the run is dense from step 1.
const frontierDenseDivisor = 2

// DiffuseFrom is Diffuse for a caller that holds traj, c's seedless
// Trajectory to the horizon: the opinions at time len(traj)−1 with seeds
// applied at time 0, bit for bit those of Diffuse. A seed moves node v at
// step s only if v is within s out-hops of it, so step s recomputes those
// nodes alone — with stepRange's arithmetic in stepRange's in-neighbour
// order, an untouched in-neighbour read from row s−1 — and every other node
// keeps its trajectory value. Once the touched nodes own more than
// m/frontierDenseDivisor in-edges the state is materialised and the remaining
// steps run dense. Either kind of step is cut over the engine pool and checks
// ctx as forChunks describes; traj is only read; the result is the caller's.
func DiffuseFrom(ctx context.Context, c *Candidate, traj [][]float64, seeds []int32, parallelism int) ([]float64, error) {
	return diffuseFrom(ctx, c, traj, seeds, parallelism, int64(c.G.M())/frontierDenseDivisor)
}

// diffuseFrom is DiffuseFrom with the guard's in-edge limit as a parameter.
func diffuseFrom(ctx context.Context, c *Candidate, traj [][]float64, seeds []int32, parallelism int, denseAbove int64) ([]float64, error) {
	g, t := c.G, len(traj)-1
	// The touched nodes in the order they were reached, seeds first; pos[v]−1
	// is v's index in touched, 0 marks an untouched node. cur[i] is the
	// current opinion of touched[i].
	pos := make([]int32, g.N())
	touched := make([]int32, 0, len(seeds))
	var cur, next []float64
	var inEdges int64 // owned by the touched nodes
	touch := func(v int32, opinion float64) {
		if pos[v] != 0 {
			return
		}
		touched = append(touched, v)
		pos[v] = int32(len(touched))
		cur = append(cur, opinion)
		inEdges += int64(g.InDegree(v))
	}
	for _, s := range seeds {
		touch(s, 1)
	}
	numSeeds := len(touched)

	var edges, nodes int64 // performed by the frontier steps
	expanded := 0          // touched[:expanded] have had their out-neighbours touched
	for s := 1; s <= t; s++ {
		prev := traj[s-1]
		// A node reached at this step was untouched at time s−1.
		for end := len(touched); expanded < end && inEdges <= denseAbove; expanded++ {
			dst, _ := g.OutNeighbors(touched[expanded])
			for _, u := range dst {
				touch(u, prev[u])
			}
		}
		if inEdges > denseAbove {
			state := slices.Clone(prev)
			for i, v := range touched {
				state[v] = cur[i]
			}
			init, stub := seeded(c, seeds)
			left := t - s + 1
			res, err := advance(ctx, g, init, stub, state, left, parallelism, pingPong(make([]float64, g.N()), state))
			if err != nil {
				return nil, err
			}
			accountFrontier(edges+int64(left)*int64(g.M()), nodes, true)
			return res, nil
		}
		next = slices.Grow(next[:0], len(touched))[:len(touched)]
		err := forChunks(ctx, parallelism, len(touched), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := touched[i]
				d, b0 := 1.0, 1.0
				if i >= numSeeds {
					d, b0 = c.Stub[v], c.Init[v]
				}
				src, w := g.InNeighbors(v)
				acc := 0.0
				for j, u := range src {
					x := prev[u]
					if p := pos[u]; p != 0 {
						x = cur[p-1]
					}
					acc += w[j] * x
				}
				next[i] = (1-d)*acc + d*b0
			}
		})
		if err != nil {
			return nil, err
		}
		cur, next = next, cur
		edges += inEdges
		nodes += int64(len(touched))
	}
	res := slices.Clone(traj[t])
	for i, v := range touched {
		res[v] = cur[i]
	}
	accountFrontier(edges, nodes, false)
	return res, nil
}

func accountFrontier(edges, nodes int64, fellBack bool) {
	account(edges)
	if obs.CostEnabled() {
		frontierNodes.Add(nodes)
		if fellBack {
			denseFallbacks.Inc()
		}
	}
}
