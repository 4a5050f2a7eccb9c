package walks

import (
	"fmt"
	"math"

	"ovm/internal/core"
	"ovm/internal/engine"
	"ovm/internal/voting"
)

type scoreKind int

const (
	kindCumulative scoreKind = iota
	kindPositional
	kindCopeland
)

func classifyScore(score voting.Score) (scoreKind, voting.Positional, error) {
	switch s := score.(type) {
	case voting.Cumulative:
		return kindCumulative, voting.Positional{}, nil
	case voting.Plurality:
		return kindPositional, voting.PluralityAsPositional(), nil
	case voting.PApproval:
		return kindPositional, voting.PApprovalAsPositional(s.P), nil
	case voting.Positional:
		return kindPositional, s, nil
	case voting.Copeland:
		return kindCopeland, voting.Positional{}, nil
	default:
		return 0, voting.Positional{}, fmt.Errorf("walks: unsupported score %s", score.Name())
	}
}

// SelectGreedy runs the walk-based greedy seed selection (the selection
// loops of Algorithm 4 and Algorithm 5): k rounds, each finding the
// candidate with the best estimated marginal gain and truncating the walks
// at the chosen seed. On an indexed set (the default — NewEstimator builds
// the postings index) rounds are incremental: gains are cached and only the
// parts invalidated by the previous seed's walks are recomputed, so a round
// costs O(elements on the walks the seed touches) instead of a full rescan.
// UseFullScan(true) runs the retained full-scan reference instead; both
// paths produce bit-identical seeds, gains, and scores. Picks are
// parallelism-invariant: shard geometry and merge order are fixed and ties
// break to the lowest node id.
func (e *Estimator) SelectGreedy(k int, score voting.Score) (*core.GreedyResult, error) {
	n := e.set.Graph().N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("walks: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	kind, pos, err := classifyScore(score)
	if err != nil {
		return nil, err
	}
	res := &core.GreedyResult{}
	// Only Copeland's gain is relative to the current score F̂(S); the other
	// kinds need F̂ once, for res.Value.
	var curScore float64
	if kind == kindCopeland {
		if curScore, err = e.EstimatedScore(score); err != nil {
			return nil, err
		}
	}
	indexed := !e.fullScan && e.set.idx != nil
	if indexed {
		e.resyncIfStale()
	}
	// Entry lists survive across SelectGreedy runs (they are score-
	// independent) but cached gains do not: force one full re-evaluation.
	e.rankAll = true
	e.resetRoundCosts()
	for round := 0; round < k; round++ {
		if e.ctx != nil {
			if err := e.ctx.Err(); err != nil {
				return nil, err
			}
		}
		e.beginRound()
		var best int32
		var bestGain float64
		switch kind {
		case kindCumulative:
			if indexed {
				best, bestGain = e.bestCumulativeIndexed()
			} else {
				best, bestGain = e.bestCumulative()
			}
		case kindPositional:
			if indexed {
				best, bestGain = e.bestRankIndexed(pos, false, curScore)
			} else {
				best, bestGain = e.bestRankBased(func(_ int, i int32, delta float64) float64 {
					v := e.set.ownerNodes[i]
					oldC := positionalContrib(e, v, e.est[i], pos.P, pos.Omega)
					newC := positionalContrib(e, v, e.est[i]+delta, pos.P, pos.Omega)
					return e.weight[i] * (newC - oldC)
				}, nil)
			}
		case kindCopeland:
			if indexed {
				best, bestGain = e.bestRankIndexed(voting.Positional{}, true, curScore)
			} else {
				best, bestGain = e.bestCopeland(curScore)
			}
		}
		res.Evaluations++
		if best < 0 {
			// All walks saturated: any non-seed node has zero estimated gain.
			for v := int32(0); v < int32(n); v++ {
				if !e.set.inSeed[v] {
					best, bestGain = v, 0
					break
				}
			}
			if best < 0 {
				break
			}
		}
		e.AddSeed(best)
		e.endRound(best)
		res.Seeds = append(res.Seeds, best)
		res.Gains = append(res.Gains, bestGain)
		if kind == kindCopeland {
			if curScore, err = e.EstimatedScore(score); err != nil {
				return nil, err
			}
		}
	}
	if res.Value, err = e.EstimatedScore(score); err != nil {
		return nil, err
	}
	return res, nil
}

// scanShardCumulative accumulates the cumulative marginal-gain shares of
// walks [wLo, wHi) into acc, recording first-touched nodes in touched.
// stamp must be all -1 on entry; the function leaves its per-walk markers
// in stamp, and the CALLER must reset the array to -1 before the next scan
// (markers repeat across rounds, so stale stamps corrupt the dedup).
func (e *Estimator) scanShardCumulative(wLo, wHi int, acc []float64, stamp []int32, touched []int32) []int32 {
	set := e.set
	for w := wLo; w < wHi; w++ {
		val := set.WalkValue(w, e.b0)
		rem := 1 - val
		if rem <= 0 {
			continue
		}
		i := e.walkOwnerIdx[w]
		share := e.weight[i] * rem / float64(set.OwnerWalkCount(int(i)))
		marker := int32(w + 1)
		for pos := set.off[w]; pos <= set.end[w]; pos++ {
			u := set.nodes[pos]
			if stamp[u] == marker {
				continue
			}
			stamp[u] = marker
			if acc[u] == 0 {
				touched = append(touched, u)
			}
			acc[u] += share
		}
	}
	return touched
}

// bestCumulative computes, in one sharded pass, for every node u the
// estimated cumulative marginal gain Σ_{walks ∋ u} weight·(1 − Y(w))/λ_owner
// and returns the argmax (ties to the lowest id). Returns (-1, 0) if no
// node has positive support. Per-shard partial gains are merged in shard
// order, so the floating-point result does not depend on the worker count.
func (e *Estimator) bestCumulative() (int32, float64) {
	set := e.set
	e.touched = e.touched[:0]
	if e.scanShards <= 1 {
		e.touched = e.scanShardCumulative(0, set.NumWalks(), e.gainAcc, e.stamp, e.touched)
		for i := range e.stamp {
			e.stamp[i] = -1
		}
	} else {
		e.ensureScanScratch()
		numWalks := set.NumWalks()
		_ = engine.ForEachShard(e.parallelism, e.scanShards, func(_, s int) error {
			lo, hi := engine.ShardRange(numWalks, e.scanShards, s)
			e.shardTouched[s] = e.scanShardCumulative(lo, hi, e.shardAcc[s], e.shardStamp[s], e.shardTouched[s][:0])
			// Reset this shard's stamps for the next round; markers repeat
			// across rounds, so stale stamps would corrupt the dedup.
			stamp := e.shardStamp[s]
			for i := range stamp {
				stamp[i] = -1
			}
			return nil
		})
		// Deterministic merge: fold shard accumulators in shard order.
		for s := 0; s < e.scanShards; s++ {
			acc := e.shardAcc[s]
			for _, u := range e.shardTouched[s] {
				if e.gainAcc[u] == 0 {
					e.touched = append(e.touched, u)
				}
				e.gainAcc[u] += acc[u]
				acc[u] = 0
			}
		}
	}
	best, bestGain := int32(-1), 0.0
	for _, u := range e.touched {
		g := e.gainAcc[u]
		e.gainAcc[u] = 0
		if e.set.inSeed[u] {
			continue
		}
		if g > bestGain || (g == bestGain && best >= 0 && u < best) {
			best, bestGain = u, g
		}
	}
	return best, bestGain
}

// bestRankBased evaluates marginal gains for rank-dependent scores. For
// each candidate u it aggregates the per-owner estimate deltas caused by
// truncating u's walks, then sums gainOf(worker, owner, delta) over
// affected owners; the per-candidate evaluations run sharded on the worker
// pool (each candidate reads shared state and writes only its own gain
// slot). copelandEval, if non-nil, overrides the aggregation (see
// bestCopeland).
func (e *Estimator) bestRankBased(gainOf func(worker int, owner int32, delta float64) float64,
	copelandEval func(worker int, u int32, lo, hi int32) float64) (int32, float64) {
	set := e.set
	n := set.Graph().N()
	// Pass A: count first occurrences per candidate node.
	for i := 0; i < n; i++ {
		e.entryCount[i] = 0
	}
	e.touched = e.touched[:0]
	for w := 0; w < set.NumWalks(); w++ {
		val := set.WalkValue(w, e.b0)
		if 1-val <= 0 {
			continue
		}
		marker := int32(2*w + 1)
		for pos := set.off[w]; pos <= set.end[w]; pos++ {
			u := set.nodes[pos]
			if e.stamp[u] == marker {
				continue
			}
			e.stamp[u] = marker
			if e.entryCount[u] == 0 {
				e.touched = append(e.touched, u)
			}
			e.entryCount[u]++
		}
	}
	total := int32(0)
	e.entryOff[0] = 0
	for i := 0; i < n; i++ {
		total += e.entryCount[i]
		e.entryOff[i+1] = total
	}
	if cap(e.entryOwner) < int(total) {
		e.entryOwner = make([]int32, total)
		e.entryAdd = make([]float64, total)
	}
	e.entryOwner = e.entryOwner[:total]
	e.entryAdd = e.entryAdd[:total]
	next := e.entryCount // reuse as cursor: next[u] = entryOff[u] position
	for i := 0; i < n; i++ {
		next[i] = e.entryOff[i]
	}
	// Pass B: fill entries in walk (hence owner-ascending) order.
	for w := 0; w < set.NumWalks(); w++ {
		val := set.WalkValue(w, e.b0)
		rem := 1 - val
		if rem <= 0 {
			continue
		}
		i := e.walkOwnerIdx[w]
		add := rem / float64(set.OwnerWalkCount(int(i)))
		marker := int32(2*w + 2)
		for pos := set.off[w]; pos <= set.end[w]; pos++ {
			u := set.nodes[pos]
			if e.stamp[u] == marker {
				continue
			}
			e.stamp[u] = marker
			p := next[u]
			next[u]++
			e.entryOwner[p] = i
			e.entryAdd[p] = add
		}
	}
	for i := range e.stamp {
		e.stamp[i] = -1
	}
	// Gain evaluation per candidate, sharded over the worker pool. Every
	// candidate's gain depends only on the (read-only) entry lists and
	// per-worker scratch, so the values — and the lowest-id tie-broken
	// argmax below — are identical for any parallelism.
	if cap(e.gainBuf) < len(e.touched) {
		e.gainBuf = make([]float64, len(e.touched))
	}
	gains := e.gainBuf[:len(e.touched)]
	e.ensureWorkerScratch()
	_ = engine.ForEachChunk(e.parallelism, len(e.touched), 64, 256, func(worker, _, tLo, tHi int) error {
		for ti := tLo; ti < tHi; ti++ {
			u := e.touched[ti]
			if e.set.inSeed[u] {
				gains[ti] = math.Inf(-1)
				continue
			}
			lo, hi := e.entryOff[u], e.entryOff[u+1]
			var gain float64
			if copelandEval != nil {
				gain = copelandEval(worker, u, lo, hi)
			} else {
				gain = 0
				p := lo
				for p < hi {
					owner := e.entryOwner[p]
					delta := e.entryAdd[p]
					p++
					for p < hi && e.entryOwner[p] == owner {
						delta += e.entryAdd[p]
						p++
					}
					gain += gainOf(worker, owner, delta)
				}
			}
			gains[ti] = gain
		}
		return nil
	})
	best, bestGain := int32(-1), math.Inf(-1)
	for ti, u := range e.touched {
		if e.set.inSeed[u] {
			continue
		}
		gain := gains[ti]
		if gain > bestGain || (gain == bestGain && best >= 0 && u < best) {
			best, bestGain = u, gain
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestGain
}

// bestCopeland evaluates Copeland marginal gains: for each candidate u it
// adjusts the weighted pairwise win/loss counters by the estimate deltas of
// the affected owners and recounts the one-on-one victories (Equation 47).
// Each worker adjusts its own scratch copy of the counters.
func (e *Estimator) bestCopeland(curScore float64) (int32, float64) {
	e.pairwise()
	return e.bestRankBased(nil, func(worker int, u int32, lo, hi int32) float64 {
		scrPlus, scrMinus := e.cpPlus[worker], e.cpMinus[worker]
		copy(scrPlus, e.plus)
		copy(scrMinus, e.minus)
		p := lo
		for p < hi {
			owner := e.entryOwner[p]
			delta := e.entryAdd[p]
			p++
			for p < hi && e.entryOwner[p] == owner {
				delta += e.entryAdd[p]
				p++
			}
			v := e.set.ownerNodes[owner]
			oldB := e.est[owner]
			newB := oldB + delta
			for x := range e.comp {
				if x == e.target {
					continue
				}
				cx := e.comp[x][v]
				// Remove old comparison.
				switch {
				case oldB > cx:
					scrPlus[x] -= e.weight[owner]
				case oldB < cx:
					scrMinus[x] -= e.weight[owner]
				}
				// Add new comparison.
				switch {
				case newB > cx:
					scrPlus[x] += e.weight[owner]
				case newB < cx:
					scrMinus[x] += e.weight[owner]
				}
			}
		}
		newScore := 0.0
		for x := range e.comp {
			if x == e.target {
				continue
			}
			if scrPlus[x] > scrMinus[x] {
				newScore++
			}
		}
		return newScore - curScore
	})
}
