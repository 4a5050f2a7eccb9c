package opinion

import (
	"context"
	"fmt"
	"slices"

	"ovm/internal/engine"
	"ovm/internal/graph"
	"ovm/internal/obs"
)

// Diffusion cost accounting, flushed once per run (never per node): how many
// FJ runs a query paid, and how many edge updates they performed. A dense run
// performs t·m; a frontier run (frontier.go) only its touched in-edges.
var (
	diffusions = obs.NewCounter("ovm_opinion_diffusions_total",
		"FJ diffusions run (one candidate's opinions taken to a horizon)")
	edgeSteps = obs.NewCounter("ovm_opinion_edge_steps_total",
		"Edge updates performed by FJ diffusions (horizon x edges for a dense run, the touched in-edges for a frontier run)")
)

// account records one finished run that performed edges edge updates.
func account(edges int64) {
	if obs.CostEnabled() {
		diffusions.Inc()
		edgeSteps.Add(edges)
	}
}

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

// seeded returns c's time-0 opinions and stubbornness with seeds applied
// (both 1 at every seed): c's own slices when there are no seeds, private
// copies otherwise.
func seeded(c *Candidate, seeds []int32) (init, stub []float64) {
	if len(seeds) == 0 {
		return c.Init, c.Stub
	}
	return ApplySeeds(c.Init, c.Stub, seeds)
}

// forChunks runs fn over the ranges of [0, n) in the fixed chunk geometry,
// on the engine pool (parallelism: 0 = GOMAXPROCS, 1 = serial). It is the one
// place FJ is parallelised: fn(lo, hi) must write only what belongs to its
// range, so the result is bit-identical at any worker count. A single chunk
// skips the pool, whose fan-out costs a tenth of such a step. ctx, when
// non-nil, is checked at every chunk boundary; a done context returns
// ctx.Err().
func forChunks(ctx context.Context, parallelism, n int, fn func(lo, hi int)) error {
	if engine.NumShards(n, stepMinNodes, stepMaxShards) <= 1 {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		fn(0, n)
		return nil
	}
	return engine.ForEachChunkCtx(ctx, parallelism, n, stepMinNodes, stepMaxShards, func(_, _, lo, hi int) error {
		fn(lo, hi)
		return nil
	})
}

// advance is the dense FJ stepping loop: it takes the state cur through steps
// updates of every node, each cut by forChunks, and returns the last one.
// Step i writes the row into(i) hands it, which must alias neither cur nor the
// row of step i−1; cur itself is only read.
func advance(ctx context.Context, g *graph.Graph, init, stub, cur []float64, steps, parallelism int, into func(i int) []float64) ([]float64, error) {
	for i := 0; i < steps; i++ {
		next := into(i)
		err := forChunks(ctx, parallelism, g.N(), func(lo, hi int) {
			stepRange(g, cur, next, init, stub, int32(lo), int32(hi))
		})
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// pingPong alternates between two rows, a first. A one-step run never asks
// for b.
func pingPong(a, b []float64) func(int) []float64 {
	return func(i int) []float64 {
		if i%2 == 0 {
			return a
		}
		return b
	}
}

// Diffuser evaluates FJ opinions at a time horizon for a single candidate,
// reusing internal buffers across calls. It is the workhorse behind the DM
// (direct matrix-vector multiplication) greedy evaluator of §III-C: one
// Run costs O(t·m).
type Diffuser struct {
	c          *Candidate
	a, b       []float64
	init, stub []float64
}

// NewDiffuser allocates a diffuser for candidate c.
func NewDiffuser(c *Candidate) *Diffuser {
	n := c.G.N()
	return &Diffuser{
		c:    c,
		a:    make([]float64, n),
		b:    make([]float64, n),
		init: make([]float64, n),
		stub: make([]float64, n),
	}
}

// Run returns B_q^(t)[S]: the opinions at horizon t with seed set seeds
// applied at time 0. The returned slice is owned by the Diffuser and is
// valid until the next call; copy it if you need to keep it.
func (d *Diffuser) Run(t int, seeds []int32) []float64 {
	copy(d.init, d.c.Init)
	copy(d.stub, d.c.Stub)
	for _, s := range seeds {
		d.init[s] = 1
		d.stub[s] = 1
	}
	res, _ := advance(nil, d.c.G, d.init, d.stub, d.init, t, 1, pingPong(d.a, d.b)) // no context, no error
	account(int64(t) * int64(d.c.G.M()))
	return res
}

// Diffuse is the one-shot horizon-t diffusion of candidate c with seeds
// applied, node-sharded and cancellable as forChunks describes. The result is
// the caller's.
func Diffuse(ctx context.Context, c *Candidate, t int, seeds []int32, parallelism int) ([]float64, error) {
	init, stub := seeded(c, seeds)
	var a, b []float64
	if t >= 1 {
		a = make([]float64, c.G.N())
	}
	if t >= 2 {
		b = make([]float64, c.G.N())
	}
	res, err := advance(ctx, c.G, init, stub, init, t, parallelism, pingPong(a, b))
	if err != nil {
		return nil, err
	}
	if t == 0 && len(seeds) == 0 {
		res = slices.Clone(res) // never hand out c.Init
	}
	account(int64(t) * int64(c.G.M()))
	return res, nil
}

// OpinionsAt is the serial, uncancellable Diffuse.
func OpinionsAt(c *Candidate, t int, seeds []int32) []float64 {
	res, _ := Diffuse(nil, c, t, seeds, 1) // no context, no error
	return res
}

// Trajectory returns the opinions of c at every time up to the horizon,
// [B^(0), B^(1), …, B^(t)], with seeds applied at time 0: one Diffuse that
// keeps each step's row. The rows are read-only: row 0 is c.Init itself when
// there are no seeds.
func Trajectory(ctx context.Context, c *Candidate, t int, seeds []int32, parallelism int) ([][]float64, error) {
	init, stub := seeded(c, seeds)
	rows := [][]float64{init}
	_, err := advance(ctx, c.G, init, stub, init, t, parallelism, func(int) []float64 {
		rows = append(rows, make([]float64, c.G.N()))
		return rows[len(rows)-1]
	})
	if err != nil {
		return nil, err
	}
	account(int64(t) * int64(c.G.M()))
	return rows, nil
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

// ChurnFractions returns, for each step 1..t, the fraction of nodes whose
// opinion changed by more than tolerance·100% relative to the previous step:
// |b^(s) − b^(s−1)| > (Δ/100)·b^(s−1), per Appendix B (Fig 18).
func ChurnFractions(c *Candidate, seeds []int32, t int, deltaPct float64) []float64 {
	traj, _ := Trajectory(nil, c, t, seeds, 1) // no context, no error
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
