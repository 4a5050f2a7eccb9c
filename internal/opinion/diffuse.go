package opinion

import (
	"context"
	"fmt"

	"ovm/internal/engine"
	"ovm/internal/graph"
	"ovm/internal/obs"
)

// Diffusion cost accounting, flushed once per run (never per node): how many
// FJ runs a query paid, and how many edge updates they performed (t·m each).
var (
	diffusions = obs.NewCounter("ovm_opinion_diffusions_total",
		"FJ diffusions run (one candidate's opinions taken to a horizon)")
	edgeSteps = obs.NewCounter("ovm_opinion_edge_steps_total",
		"Edge updates performed by FJ diffusions (horizon x edges per run)")
)

// Node-range chunk geometry of a sharded FJ step. Like every engine fan-out
// it is fixed by the input size alone, never by the worker count.
const (
	stepMinNodes  = 2048
	stepMaxShards = 256
)

// stepRange is the FJ update of nodes [lo, hi):
//
//	next[v] = (1 − stub[v]) · Σ_u w_uv · cur[u] + stub[v] · init[v]
//
// Every next[v] reads only cur, so disjoint ranges may run concurrently and
// the result is bit-identical however the node range is cut.
func stepRange(g *graph.Graph, cur, next, init, stub []float64, lo, hi int32) {
	for v := lo; v < hi; v++ {
		src, w := g.InNeighbors(v)
		acc := 0.0
		for i := range src {
			acc += w[i] * cur[src[i]]
		}
		d := stub[v]
		next[v] = (1-d)*acc + d*init[v]
	}
}

// Step performs one FJ update of every node. cur and next must not alias.
// All slices must have length g.N().
func Step(g *graph.Graph, cur, next, init, stub []float64) {
	stepRange(g, cur, next, init, stub, 0, int32(g.N()))
}

// Diffuser evaluates FJ opinions at a time horizon for a single candidate,
// reusing internal buffers across calls. It is the workhorse behind the DM
// (direct matrix-vector multiplication) greedy evaluator of §III-C: one
// Run costs O(t·m).
type Diffuser struct {
	c        *Candidate
	cur, nxt []float64
	effInit  []float64
	effStub  []float64
}

// NewDiffuser allocates a diffuser for candidate c.
func NewDiffuser(c *Candidate) *Diffuser {
	n := c.G.N()
	return &Diffuser{
		c:       c,
		cur:     make([]float64, n),
		nxt:     make([]float64, n),
		effInit: make([]float64, n),
		effStub: make([]float64, n),
	}
}

// reset loads the time-0 state with seed set seeds applied.
func (d *Diffuser) reset(seeds []int32) {
	copy(d.effInit, d.c.Init)
	copy(d.effStub, d.c.Stub)
	for _, s := range seeds {
		d.effInit[s] = 1
		d.effStub[s] = 1
	}
	copy(d.cur, d.effInit)
}

// step advances the state by one FJ update.
func (d *Diffuser) step() {
	Step(d.c.G, d.cur, d.nxt, d.effInit, d.effStub)
	d.cur, d.nxt = d.nxt, d.cur
}

// account records one finished t-step run.
func (d *Diffuser) account(t int) {
	if obs.CostEnabled() {
		diffusions.Inc()
		edgeSteps.Add(int64(t) * int64(d.c.G.M()))
	}
}

// Run returns B_q^(t)[S]: the opinions at horizon t with seed set seeds
// applied at time 0. The returned slice is owned by the Diffuser and is
// valid until the next call; copy it if you need to keep it.
func (d *Diffuser) Run(t int, seeds []int32) []float64 {
	d.reset(seeds)
	for s := 0; s < t; s++ {
		d.step()
	}
	d.account(t)
	return d.cur
}

// Trajectory returns the full opinion trajectory [B^(0), B^(1), …, B^(t)]
// (t+1 slices, each freshly allocated). Used by the Appendix-B churn study.
func (d *Diffuser) Trajectory(t int, seeds []int32) [][]float64 {
	d.reset(seeds)
	out := make([][]float64, 0, t+1)
	out = append(out, append([]float64(nil), d.cur...))
	for s := 0; s < t; s++ {
		d.step()
		out = append(out, append([]float64(nil), d.cur...))
	}
	return out
}

// Diffuse is the one-shot horizon-t diffusion of candidate c with seeds
// applied, and the one place FJ is parallelised: each step's node loop is
// cut into fixed chunks over the engine pool (parallelism: 0 = GOMAXPROCS,
// 1 = serial), so a single row uses every core and the result is
// bit-identical at any worker count. ctx, when non-nil, is checked at chunk
// boundaries of every step; a done context returns ctx.Err().
func Diffuse(ctx context.Context, c *Candidate, t int, seeds []int32, parallelism int) ([]float64, error) {
	d := NewDiffuser(c)
	d.reset(seeds)
	for s := 0; s < t; s++ {
		err := engine.ForEachChunkCtx(ctx, parallelism, c.G.N(), stepMinNodes, stepMaxShards, func(_, _, lo, hi int) error {
			stepRange(c.G, d.cur, d.nxt, d.effInit, d.effStub, int32(lo), int32(hi))
			return nil
		})
		if err != nil {
			return nil, err
		}
		d.cur, d.nxt = d.nxt, d.cur
	}
	d.account(t)
	return d.cur, nil
}

// OpinionsAt is the serial, uncancellable Diffuse.
func OpinionsAt(c *Candidate, t int, seeds []int32) []float64 {
	res, _ := Diffuse(nil, c, t, seeds, 1) // no context, no error
	return res
}

// Matrix computes the full opinion matrix B^(t)[S] for a system from
// scratch: row q holds candidate q's opinions at horizon t. Only the target
// candidate receives the seed set; all others diffuse seedless, matching
// the problem setup of §II-C (known/no seeds for non-targets). Rows are
// diffused one after another, each node-sharded by Diffuse, so the matrix
// is identical at any worker count.
func Matrix(s *System, t int, target int, seeds []int32, parallelism int) ([][]float64, error) {
	if target < 0 || target >= s.R() {
		return nil, fmt.Errorf("opinion: target candidate %d out of range [0,%d)", target, s.R())
	}
	out := make([][]float64, s.R())
	for q := range out {
		var sd []int32
		if q == target {
			sd = seeds
		}
		out[q], _ = Diffuse(nil, s.Candidate(q), t, sd, parallelism) // no context, no error
	}
	return out, nil
}

// MaxAbsDiff returns max_v |a[v] − b[v]|; used for convergence detection.
func MaxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}

// StepsToConverge runs FJ until successive iterates differ by at most tol
// in max-norm or maxSteps is reached. It returns the number of steps taken
// and whether convergence was declared.
func StepsToConverge(c *Candidate, seeds []int32, tol float64, maxSteps int) (int, bool) {
	d := NewDiffuser(c)
	d.reset(seeds)
	for step := 1; step <= maxSteps; step++ {
		d.step()
		if MaxAbsDiff(d.cur, d.nxt) <= tol {
			return step, true
		}
	}
	return maxSteps, false
}

// ObliviousNodes returns the nodes that are (1) non-stubborn and (2) not
// reachable from any (fully or partially) stubborn node along influence
// edges — the nodes whose presence decides FJ convergence (§II-A).
func ObliviousNodes(c *Candidate) []int32 {
	n := c.G.N()
	var stubborn []int32
	for v := 0; v < n; v++ {
		if c.Stub[v] > 0 {
			stubborn = append(stubborn, int32(v))
		}
	}
	reached := make([]bool, n)
	bfs := graph.NewBFS(c.G)
	bfs.MarkReachable(stubborn, n, reached) // n hops = unbounded for n nodes
	var out []int32
	for v := 0; v < n; v++ {
		if c.Stub[v] == 0 && !reached[v] {
			out = append(out, int32(v))
		}
	}
	return out
}

// ChurnFractions returns, for each step 1..t, the fraction of nodes whose
// opinion changed by more than tolerance·100% relative to the previous step:
// |b^(s) − b^(s−1)| > (Δ/100)·b^(s−1), per Appendix B (Fig 18).
func ChurnFractions(c *Candidate, seeds []int32, t int, deltaPct float64) []float64 {
	traj := NewDiffuser(c).Trajectory(t, seeds)
	out := make([]float64, 0, t)
	for s := 1; s <= t; s++ {
		changed := 0
		prev, cur := traj[s-1], traj[s]
		for v := range cur {
			if diff := cur[v] - prev[v]; diff > deltaPct/100*prev[v] || -diff > deltaPct/100*prev[v] {
				changed++
			}
		}
		out = append(out, float64(changed)/float64(len(cur)))
	}
	return out
}
