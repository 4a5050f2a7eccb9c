package walks

import (
	"context"
	"fmt"

	"ovm/internal/engine"
	"ovm/internal/voting"
)

// Estimator turns a walk Set into voting-score estimates and drives the
// greedy seed selection of Algorithms 4 and 5. It keeps per-owner opinion
// estimates b̂_qv[S] refreshed after every seed insertion, and caches the
// marginal gain of every candidate node, re-deriving after a seed only what
// that seed's walks invalidate.
//
// Owner weights express how an owner's contribution enters the estimated
// score: 1 for the RW method (every node is an owner), and m_v·n/θ for the
// RS method (owner v sampled m_v times among θ sketches).
//
// The scan-heavy phases (estimate refresh, truncation, marginal-gain
// evaluation) run on the engine worker pool. Shard geometry and reduction
// order are fixed independently of the worker count, so greedy decisions —
// and therefore seed sets and scores — are bit-identical for every
// Parallelism value.
type Estimator struct {
	set    *Set
	target int
	b0     []float64   // target candidate's initial opinions (no seeds)
	comp   [][]float64 // exact horizon opinions per candidate; comp[target] ignored
	weight []float64   // per-owner score weight

	est          []float64 // per-owner b̂
	walkOwnerIdx []int32   // owner index of each walk

	parallelism int             // engine worker knob (0 = GOMAXPROCS)
	ctx         context.Context // optional; polled at greedy round boundaries

	shardBounds []int32 // ScanShardBounds of the set: the cumulative gain's fold grouping

	// Copeland state: the weighted pairwise win/loss counters are a pure
	// function of est, so a change to est only marks them stale and the
	// first reader refolds them (pairwise) — scores that never read them
	// never pay for them.
	plus, minus   []float64
	pairwiseStale bool
	cpPlus        [][]float64 // per-worker scratch copies of plus
	cpMinus       [][]float64 // per-worker scratch copies of minus

	// Selection state. A walk is "live" while its remaining headroom
	// rem = 1 − Y(w) is positive; the first seed landing on its active prefix
	// pins Y(w) to 1 forever, so live walks never change and dead walks never
	// contribute. share/addVal cache the per-walk gain contributions
	// (weight·rem/λ and rem/λ), valid while the walk is live.
	live   []bool    // rem > 0, maintained across AddSeed
	share  []float64 // cumulative gain share of a live walk
	addVal []float64 // rank-based estimate delta of a live walk

	changedOwners []int32 // scratch: owners with a newly-dead walk this round
	ownerMark     []bool  // len NumOwners, dedup for changedOwners

	// Cumulative gain cache: gains recomputed only for nodes on walks that
	// died (cumDirty), everything else keeps its bit-identical cached value.
	cumGain  []float64
	cumCand  []int32
	cumDirty []int32
	cumMark  []bool
	cumReady bool

	// Rank-based entry cache: per-candidate (owner, estimate-delta) lists,
	// patched only for nodes touched by the newly-dead walks or by a changed
	// owner's surviving walks. rankAll forces a full gain re-evaluation
	// (start of a SelectGreedy run, and every Copeland round: the ± counters
	// are global inputs to every candidate's gain).
	entOwner  [][]int32
	entDelta  [][]float64
	entCand   []int32
	rankGain  []float64
	rankDirty []int32
	rankMark  []bool
	entReady  bool
	rankAll   bool

	// Per-round cost accounting for query EXPLAIN: round accumulates the
	// current greedy round's work, roundCosts the finished rounds of the
	// last SelectGreedy run. Maintained only while obs.CostEnabled.
	round      RoundCost
	roundCosts []RoundCost
}

// NewEstimator assembles an estimator. comp must hold the exact horizon-t
// opinion vector of every non-target candidate (indexed by candidate, then
// node id); the target row is ignored and may be nil. weight must have one
// entry per owner. parallelism caps the worker pool for every scan,
// including the initial estimate refresh performed here (0 = GOMAXPROCS,
// 1 = serial).
func NewEstimator(set *Set, target int, b0 []float64, comp [][]float64, weight []float64, parallelism int) (*Estimator, error) {
	n := set.N()
	if len(b0) != n {
		return nil, fmt.Errorf("walks: b0 has %d entries, want %d", len(b0), n)
	}
	if len(weight) != set.NumOwners() {
		return nil, fmt.Errorf("walks: weight has %d entries, want %d owners", len(weight), set.NumOwners())
	}
	for q, row := range comp {
		if q == target {
			continue
		}
		if len(row) != n {
			return nil, fmt.Errorf("walks: comp[%d] has %d entries, want %d", q, len(row), n)
		}
	}
	e := &Estimator{
		set:         set,
		parallelism: parallelism,
		target:      target,
		b0:          b0,
		comp:        comp,
		weight:      weight,
		est:         make([]float64, set.NumOwners()),
		shardBounds: ScanShardBounds(n, set.NumWalks()),
		plus:        make([]float64, len(comp)),
		minus:       make([]float64, len(comp)),
	}
	e.walkOwnerIdx = make([]int32, set.NumWalks())
	for i := 0; i < set.NumOwners(); i++ {
		for w := set.ownerOff[i]; w < set.ownerOff[i+1]; w++ {
			e.walkOwnerIdx[w] = int32(i)
		}
	}
	set.EnsureIndex(parallelism)
	set.truncState()
	e.Refresh()
	return e, nil
}

// ScanShardBounds returns the fixed partition of a set's walk ids behind the
// cumulative gain's summation grouping (fold contract, rule 2): shard s
// holds walks [b[s], b[s+1]), b[0] = 0 and the last entry is numWalks. The
// geometry depends only on the set's shape, never on the worker count:
// at least 2048 walks per shard, at most 64 shards, fewer on graphs of more
// than 128k nodes. It is part of the numbers: changing it changes gain bits.
func ScanShardBounds(n, numWalks int) []int32 {
	shards := engine.NumShards(numWalks, 2048, min(64, max(1, (8<<20)/(n+1))))
	b := make([]int32, shards+1)
	for s := 0; s < shards; s++ {
		_, hi := engine.ShardRange(numWalks, shards, s)
		b[s+1] = int32(hi)
	}
	return b
}

// SetContext installs a context polled at the start of every SelectGreedy
// round; a done context makes the run return ctx.Err(). The estimator (and
// the Set clone it mutates) must be discarded after a cancelled run — the
// caller owns both, so nothing shared is left half-updated.
func (e *Estimator) SetContext(ctx context.Context) { e.ctx = ctx }

// ensureWorkerScratch sizes the per-worker Copeland counters.
func (e *Estimator) ensureWorkerScratch() {
	w := engine.Workers(e.parallelism)
	if len(e.cpPlus) >= w {
		return
	}
	e.cpPlus = make([][]float64, w)
	e.cpMinus = make([][]float64, w)
	for i := 0; i < w; i++ {
		e.cpPlus[i] = make([]float64, len(e.comp))
		e.cpMinus[i] = make([]float64, len(e.comp))
	}
}

// UniformOwnerWeights returns all-ones weights (the RW estimator).
func UniformOwnerWeights(set *Set) []float64 {
	w := make([]float64, set.NumOwners())
	for i := range w {
		w[i] = 1
	}
	return w
}

// SketchOwnerWeights returns the RS weights m_v·n/θ, where m_v is the number
// of sketches started at owner v (Equation 35 / 42 scaling).
func SketchOwnerWeights(set *Set, theta int) []float64 {
	n := float64(set.N())
	w := make([]float64, set.NumOwners())
	for i := range w {
		w[i] = float64(set.OwnerWalkCount(i)) * n / float64(theta)
	}
	return w
}

// pairwise brings the weighted Copeland win/loss counters up to date with
// est by refolding them over all owners in ascending owner order (fold
// contract, rule 4): the counters must match a from-scratch recompute
// bit-for-bit, so they are refolded (at O(owners·candidates)) instead of
// patched with ± deltas. It must run on the calling goroutine before any
// fan-out that reads plus/minus.
func (e *Estimator) pairwise() {
	if !e.pairwiseStale {
		return
	}
	e.pairwiseStale = false
	for x := range e.comp {
		e.plus[x], e.minus[x] = 0, 0
	}
	for i, v := range e.set.ownerNodes {
		for x := range e.comp {
			if x == e.target {
				continue
			}
			switch {
			case e.est[i] > e.comp[x][v]:
				e.plus[x] += e.weight[i]
			case e.est[i] < e.comp[x][v]:
				e.minus[x] += e.weight[i]
			}
		}
	}
}

// Estimate returns the current b̂ of owner i.
func (e *Estimator) Estimate(i int) float64 { return e.est[i] }

// EstimateOf returns the current b̂ of node v, or (0, false) if v owns no
// walks.
func (e *Estimator) EstimateOf(v int32) (float64, bool) {
	// Binary search over the sorted owner list.
	lo, hi := 0, len(e.set.ownerNodes)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.set.ownerNodes[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(e.set.ownerNodes) && e.set.ownerNodes[lo] == v {
		return e.est[lo], true
	}
	return 0, false
}

// rankOf returns β for the target at owner-node v given target estimate b:
// 1 plus the number of competitors with exact opinion ≥ b.
func (e *Estimator) rankOf(v int32, b float64) int {
	rank := 1
	for x := range e.comp {
		if x == e.target {
			continue
		}
		if e.comp[x][v] >= b {
			rank++
		}
	}
	return rank
}

// positionalContrib is ω[β]·1[β ≤ p] for owner-node v at estimate b.
func positionalContrib(e *Estimator, v int32, b float64, p int, omega []float64) float64 {
	beta := e.rankOf(v, b)
	if beta <= p {
		return omega[beta-1]
	}
	return 0
}

// EstimatedScore evaluates the estimated voting score F̂ for the current
// truncation state (Equations 35, 42, 47).
func (e *Estimator) EstimatedScore(score voting.Score) (float64, error) {
	switch s := score.(type) {
	case voting.Cumulative:
		total := 0.0
		for i := range e.est {
			total += e.weight[i] * e.est[i]
		}
		return total, nil
	case voting.Plurality:
		return e.estimatedPositional(voting.PluralityAsPositional()), nil
	case voting.PApproval:
		return e.estimatedPositional(voting.PApprovalAsPositional(s.P)), nil
	case voting.Positional:
		return e.estimatedPositional(s), nil
	case voting.Copeland:
		e.pairwise()
		total := 0.0
		for x := range e.comp {
			if x == e.target {
				continue
			}
			if e.plus[x] > e.minus[x] {
				total++
			}
		}
		return total, nil
	default:
		return 0, fmt.Errorf("walks: unsupported score %s", score.Name())
	}
}

func (e *Estimator) estimatedPositional(s voting.Positional) float64 {
	total := 0.0
	for i, v := range e.set.ownerNodes {
		total += e.weight[i] * positionalContrib(e, v, e.est[i], s.P, s.Omega)
	}
	return total
}

// Set returns the underlying walk set.
func (e *Estimator) Set() *Set { return e.set }
