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

// patchDivisor sets a patch's budget: PatchTrajectory gives up once the
// touched nodes own more than m/patchDivisor in-edges. A patch runs on the
// update path before its epoch is visible, and a value it gives up on is
// rebuilt densely (t·m) by the first query that needs it, so the budget
// bounds what a patch may spend on the update path: by the guard's 2.1
// dense edges per frontier edge, a patch at the budget on every step costs
// about half the rebuild it replaces. Measured at n = 12 000, t = 10, over
// 200 batches of update-burst's shape (one opinion or stubbornness op) and
// of churn-mix's (three such ops and an add_edge), patching the target's
// trajectory against building it fresh: on twitter-distancing-like the
// touched nodes' largest step owns 2–22% of m, and m/4 completes every
// patch in 0.3–0.4 of the fresh build's time, while m/8 gives up on 28% and
// 85% of them, so that with the rebuilds it saves only 28% and 3%; on
// dblp-like (every node within reach) and yelp-like (54–69% of m) nearly
// every patch gives up at either divisor. A patch finds that out before
// any arithmetic, its reach search stopping at the budget, so giving up
// costs at most about m/patchDivisor out-neighbour reads: over 200 one-op
// batches at n = 12 000, 4% of the fresh build on dblp-like and 0.6% on
// yelp-like, where stepping until the budget trips costs 13% and 2%.
const patchDivisor = 4

// frontier is the one frontier FJ kernel. It steps c's dynamics from time 0
// against base, a trajectory that differs from c's own only through the
// nodes it was started from: those whose time-0 opinion, stubbornness or
// in-column moved (seeds, or the nodes a batch touched). A node can then
// move at step s only if it lies within s out-hops of one of them, so step s
// recomputes those nodes alone — with stepRange's arithmetic in stepRange's
// in-neighbour order, an untouched in-neighbour read from base's row s−1 —
// and every other node keeps its base value, bit for bit. Before any step it
// searches the start nodes' out-reach hop by hop to the horizon, stopping
// once the reached nodes own more than a limit of in-edges, so the steps the
// limit admits, and the edges they will step, are known before any
// arithmetic is done.
type frontier struct {
	c    *Candidate
	base [][]float64
	// reach lists the reached nodes in breadth-first order, the start nodes
	// first: reach[:ends[s]] are the nodes within s out-hops, and they own
	// mass[s] in-edges; steps 1..len(ends)−1 are admitted. pos[v] is v's
	// index in reach plus one, negated until v is first stepped; 0 marks a
	// node out of reach. cur[i] is the current opinion of reach[i], for the
	// nodes stepped so far; reach[:seeds] step with init = stub = 1.
	pos      []int32
	reach    []int32
	ends     []int
	mass     []int64
	seeds    int
	cur, nxt []float64
	reads    int64 // out-neighbour reads of the reach search
	edges    int64 // performed by the steps so far
	nodes    int64
}

// newFrontier starts the kernel at time 0 from the nodes in from, which
// take init = stub = 1 when seeds is set and c's own values otherwise, and
// searches their reach to len(base)−1 hops or until it owns more than limit
// in-edges.
func newFrontier(c *Candidate, base [][]float64, from []int32, seeds bool, limit int64) *frontier {
	g := c.G
	f := &frontier{c: c, base: base, pos: make([]int32, g.N()), reach: make([]int32, 0, len(from))}
	var mass int64
	for _, v := range from {
		if f.pos[v] == 0 {
			f.reach = append(f.reach, v)
			f.pos[v] = int32(len(f.reach))
			mass += int64(g.InDegree(v))
		}
	}
	if seeds {
		f.seeds = len(f.reach)
	}
	f.ends, f.mass = make([]int, 1, len(base)), make([]int64, 1, len(base))
	f.ends[0], f.mass[0] = len(f.reach), mass
	for s, lo := 1, 0; s < len(base) && mass <= limit; s++ {
		for hi := len(f.reach); lo < hi && mass <= limit; lo++ {
			dst, _ := g.OutNeighbors(f.reach[lo])
			f.reads += int64(len(dst))
			for _, u := range dst {
				if f.pos[u] == 0 {
					f.reach = append(f.reach, u)
					f.pos[u] = -int32(len(f.reach))
					mass += int64(g.InDegree(u))
				}
			}
		}
		if mass > limit {
			break
		}
		f.ends, f.mass = append(f.ends, len(f.reach)), append(f.mass, mass)
	}
	// The steps admitted move at most reach[:ends[last]].
	size := f.ends[len(f.ends)-1]
	f.cur, f.nxt = make([]float64, f.ends[0], size), make([]float64, 0, size)
	for i, v := range f.reach[:f.ends[0]] {
		f.cur[i] = 1
		if !seeds {
			f.cur[i] = c.Init[v]
		}
	}
	return f
}

// admits reports whether the limit admits steps 1..s.
func (f *frontier) admits(s int) bool { return s < len(f.ends) }

// step takes the nodes within s hops from time s−1 to s. It reports false,
// having stepped nothing, when the limit does not admit step s; the state
// at time s−1 is then still state(s−1).
func (f *frontier) step(ctx context.Context, s, parallelism int) (bool, error) {
	if !f.admits(s) {
		return false, nil
	}
	g, prev := f.c.G, f.base[s-1]
	// A node first stepped now was unmoved at time s−1.
	for _, v := range f.reach[len(f.cur):f.ends[s]] {
		f.pos[v] = -f.pos[v]
		f.cur = append(f.cur, prev[v])
	}
	f.nxt = f.nxt[:len(f.cur)]
	c, stepped, pos, seeds, cur, next := f.c, f.reach[:len(f.cur)], f.pos, f.seeds, f.cur, f.nxt
	err := forChunks(ctx, parallelism, len(stepped), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := stepped[i]
			d, b0 := 1.0, 1.0
			if i >= seeds {
				d, b0 = c.Stub[v], c.Init[v]
			}
			src, w := g.InNeighbors(v)
			acc := 0.0
			for j, u := range src {
				x := prev[u]
				if p := pos[u]; p > 0 {
					x = cur[p-1]
				}
				acc += w[j] * x
			}
			next[i] = (1-d)*acc + d*b0
		}
	})
	if err != nil {
		return false, err
	}
	f.cur, f.nxt = f.nxt, f.cur
	f.edges += f.mass[s]
	f.nodes += int64(len(stepped))
	return true, nil
}

// state returns the opinions at time s, the last time stepped to: base's row
// s with the stepped nodes' values. The row is the caller's.
func (f *frontier) state(s int) []float64 {
	res := slices.Clone(f.base[s])
	for i, v := range f.reach[:len(f.cur)] {
		res[v] = f.cur[i]
	}
	return res
}

// DiffuseFrom is Diffuse for a caller that holds traj, c's seedless
// Trajectory to the horizon: the opinions at time len(traj)−1 with seeds
// applied at time 0, bit for bit those of Diffuse. It is the frontier kernel
// started from the seeds. Once the touched nodes own more than
// m/frontierDenseDivisor in-edges the state is materialised and the remaining
// steps run dense. Either kind of step is cut over the engine pool and checks
// ctx as forChunks describes; traj is only read; the result is the caller's.
func DiffuseFrom(ctx context.Context, c *Candidate, traj [][]float64, seeds []int32, parallelism int) ([]float64, error) {
	return diffuseFrom(ctx, c, traj, seeds, parallelism, int64(c.G.M())/frontierDenseDivisor)
}

// diffuseFrom is DiffuseFrom with the guard's in-edge limit as a parameter.
func diffuseFrom(ctx context.Context, c *Candidate, traj [][]float64, seeds []int32, parallelism int, denseAbove int64) ([]float64, error) {
	g, t := c.G, len(traj)-1
	f := newFrontier(c, traj, seeds, true, denseAbove)
	for s := 1; s <= t; s++ {
		ok, err := f.step(ctx, s, parallelism)
		if err != nil {
			return nil, err
		}
		if !ok {
			state := f.state(s - 1)
			init, stub := seeded(c, seeds)
			left := t - s + 1
			res, err := advance(ctx, g, init, stub, state, left, parallelism, pingPong(make([]float64, g.N()), state))
			if err != nil {
				return nil, err
			}
			accountFrontier(f.edges+int64(left)*int64(g.M()), f.nodes, true)
			return res, nil
		}
	}
	accountFrontier(f.edges, f.nodes, false)
	return f.state(t), nil
}

// PatchTrajectory returns c's seedless Trajectory to len(base)−1, bit for bit,
// from base: the trajectory of a system that differs from c's only at the
// nodes in touched (their Init, Stub or in-column; every other node's are
// c's). It is the frontier kernel started from those nodes. Its rows are
// its own, but for row 0, which is c.Init itself. It returns nil, having
// stepped nothing, when the patch is not worth its cost: the nodes within
// the horizon's reach of touched own more than m/patchDivisor in-edges, or
// the patch would do more than maxWork. Work counts the array entries a
// patch touches: the n of its search's position array and the out-neighbour
// reads, then the edge steps and the n entries of each row it writes (a
// dense rebuild is t·(m + n)). The int64 is the work done. base is only
// read; ctx and parallelism act as in DiffuseFrom.
func PatchTrajectory(ctx context.Context, c *Candidate, base [][]float64, touched []int32, maxWork int64, parallelism int) ([][]float64, int64, error) {
	return patchTrajectory(ctx, c, base, touched, maxWork, parallelism, int64(c.G.M())/patchDivisor)
}

// patchTrajectory is PatchTrajectory with its in-edge budget as a parameter.
func patchTrajectory(ctx context.Context, c *Candidate, base [][]float64, touched []int32, maxWork int64, parallelism int, budget int64) ([][]float64, int64, error) {
	t, n := len(base)-1, int64(c.G.N())
	f := newFrontier(c, base, touched, false, budget)
	search := n + f.reads
	if !f.admits(t) {
		return nil, search, nil
	}
	work := search + int64(t)*n
	for _, m := range f.mass[1:] {
		work += m
	}
	if work > maxWork {
		return nil, search, nil
	}
	rows := [][]float64{c.Init}
	for s := 1; s <= t; s++ {
		if _, err := f.step(ctx, s, parallelism); err != nil {
			return nil, search + f.edges + int64(s-1)*n, err
		}
		rows = append(rows, f.state(s))
	}
	accountFrontier(f.edges, f.nodes, false)
	return rows, work, nil
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
