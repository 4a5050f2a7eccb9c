package core

import (
	"container/heap"
	"context"
	"fmt"

	"ovm/internal/engine"
)

// ctxErr polls an optional context; nil means "never cancelled". The greedy
// drivers call it at round (and heap-iteration) boundaries, and the engine
// polls the same ctx at every chunk of an objective's sweep, so a cancelled
// selection abandons work promptly without ever publishing a partial result.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Objective is a non-negative, non-decreasing set function over nodes that
// the greedy drivers maximize under a cardinality constraint. It carries the
// picks so far, so one Objective serves one greedy run.
type Objective interface {
	// N returns the ground-set size.
	N() int
	// Gains writes into out[i] the marginal gain of cands[i] over the picks
	// so far. It may fan the candidates over the engine worker pool; out[i]
	// never depends on the scheduling. A ctx error leaves out garbage.
	Gains(ctx context.Context, cands []int32, out []float64) error
	// Add picks v, whose marginal gain Gains reported as gain.
	Add(v int32, gain float64)
	// Value returns the objective at the picks so far.
	Value() float64
	// Evaluations counts the evaluations performed since construction.
	Evaluations() int
}

// sweep runs fn over the chunks of n candidates that ForEachChunkCtx cuts,
// ctx polled per chunk. A single candidate, which is what the lazy loop
// re-evaluates, runs inline on worker 0: the pool's fan-out would cost more
// than the evaluation.
func sweep(ctx context.Context, parallelism, n, minPerShard, maxShards int, fn func(worker, lo, hi int)) error {
	if n == 1 {
		fn(0, 0, 1)
		return nil
	}
	return engine.ForEachChunkCtx(ctx, parallelism, n, minPerShard, maxShards, func(worker, _, lo, hi int) error {
		fn(worker, lo, hi)
		return nil
	})
}

// GreedyResult reports the outcome of a greedy run.
type GreedyResult struct {
	Seeds       []int32   // selected seeds in pick order
	Gains       []float64 // marginal gain of each pick
	Value       float64   // objective value of the full seed set
	Evaluations int       // the objective's Evaluations at the end of the run
}

// checkK is the drivers' cardinality constraint: 1 <= k <= n.
func checkK(k, n int) error {
	if k < 1 || k > n {
		return fmt.Errorf("core: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	return nil
}

// Greedy is Algorithm 1: k rounds, each picking the node with the maximum
// marginal gain, re-evaluating every remaining candidate node per round.
// Exact but O(k·n) objective evaluations; prefer GreedyCELF for
// non-decreasing submodular objectives. Candidates are scanned in ascending
// node order with first-max-wins tie-breaking, so the picks do not depend on
// how obj schedules a sweep. ctx, when non-nil, is polled every round and by
// obj's sweeps.
func Greedy(ctx context.Context, obj Objective, k int) (*GreedyResult, error) {
	n := obj.N()
	if err := checkK(k, n); err != nil {
		return nil, err
	}
	res := &GreedyResult{Seeds: make([]int32, 0, k)}
	inSeed := make([]bool, n)
	cands := make([]int32, 0, n)
	gains := make([]float64, n)
	for round := 0; round < k; round++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		cands = cands[:0]
		for v := int32(0); v < int32(n); v++ {
			if !inSeed[v] {
				cands = append(cands, v)
			}
		}
		if err := obj.Gains(ctx, cands, gains[:len(cands)]); err != nil {
			return nil, err
		}
		best, bestGain := int32(-1), -1.0
		for i, v := range cands {
			if gains[i] > bestGain {
				best, bestGain = v, gains[i]
			}
		}
		if best < 0 {
			break
		}
		obj.Add(best, bestGain)
		inSeed[best] = true
		res.Seeds = append(res.Seeds, best)
		res.Gains = append(res.Gains, bestGain)
	}
	res.Value = obj.Value()
	res.Evaluations = obj.Evaluations()
	return res, nil
}

// celfEntry is a lazy-greedy priority-queue entry.
type celfEntry struct {
	node  int32
	gain  float64
	stamp int // |seeds| at the time gain was computed
}

type celfHeap []celfEntry

func (h celfHeap) Len() int           { return len(h) }
func (h celfHeap) Less(i, j int) bool { return h[i].gain > h[j].gain }
func (h celfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x any)        { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GreedyCELF is Algorithm 1 with the CELF lazy-evaluation optimization
// (§III-C, [49]): stale marginal gains are re-evaluated only when they
// surface at the top of a max-heap. Correct for non-decreasing submodular
// objectives (cumulative score, the sandwich LB/UB surrogates); for
// non-submodular objectives it degrades to a heuristic, matching how the
// paper applies the greedy feasible solution SF.
//
// The initial full sweep, the dominant cost at n evaluations, is one Gains
// call that obj may fan over the worker pool. The lazy loop re-evaluates one
// candidate at a time, so the heap evolves exactly as in the sequential
// algorithm and results are bit-identical across Parallelism values. ctx,
// when non-nil, is polled before the sweep, by it, and at every lazy-loop
// iteration.
func GreedyCELF(ctx context.Context, obj Objective, k int) (*GreedyResult, error) {
	n := obj.N()
	if err := checkK(k, n); err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	cands := make([]int32, n)
	gains := make([]float64, n)
	for v := range cands {
		cands[v] = int32(v)
	}
	if err := obj.Gains(ctx, cands, gains); err != nil {
		return nil, err
	}
	h := make(celfHeap, n)
	for v := range h {
		h[v] = celfEntry{node: int32(v), gain: gains[v]}
	}
	heap.Init(&h)

	res := &GreedyResult{Seeds: make([]int32, 0, k)}
	for len(res.Seeds) < k && h.Len() > 0 {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		top := h[0]
		if top.stamp == len(res.Seeds) {
			// Gain is fresh w.r.t. the current seed set: accept.
			heap.Pop(&h)
			obj.Add(top.node, top.gain)
			res.Seeds = append(res.Seeds, top.node)
			res.Gains = append(res.Gains, top.gain)
			continue
		}
		// Stale: recompute gain w.r.t. the current seed set.
		if err := obj.Gains(ctx, cands[top.node:top.node+1], gains[:1]); err != nil {
			return nil, err
		}
		h[0].gain = gains[0]
		h[0].stamp = len(res.Seeds)
		heap.Fix(&h, 0)
	}
	res.Value = obj.Value()
	res.Evaluations = obj.Evaluations()
	return res, nil
}
