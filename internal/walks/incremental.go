package walks

import (
	"math"

	"ovm/internal/engine"
	"ovm/internal/obs"
	"ovm/internal/voting"
)

// This file is the selection engine behind SelectGreedy: cached gains over
// the postings index instead of a per-round rescan of every walk.
//
// The structural fact it exploits: a walk's Y value only ever changes when
// a seed first lands on its active prefix — at that moment the value pins
// to 1 and the walk stops contributing to every estimate and every gain,
// forever. Live walks never change at all. Selection is therefore weighted
// max-cover over the node → walk postings, and per-round cost drops from
// O(total walk elements) to O(elements on the walks the chosen seed
// touches).
//
// Every dirtied quantity is re-derived with exactly the summation grouping
// and order of the fold contract in the package doc, which the
// from-the-definition oracle (package walksref) follows too — an untouched
// quantity keeps a cached value that a recompute would reproduce
// bit-for-bit, so caching is invisible in the output at any parallelism.

// Refresh recomputes everything derived from the set's truncation state:
// the per-owner estimates (the Copeland pairwise counts follow on their next
// read) and the per-walk liveness and gain contributions, and drops the gain
// caches, which the next round rebuilds. NewEstimator runs it; call it again
// after mutating the set directly (Estimator.AddSeed maintains everything
// itself).
func (e *Estimator) Refresh() {
	set := e.set
	e.pairwiseStale = true
	if e.live == nil {
		nw := set.NumWalks()
		e.live = make([]bool, nw)
		e.share = make([]float64, nw)
		e.addVal = make([]float64, nw)
	}
	// One pass per owner: its estimate sums the walk values in walk order
	// (fold contract, rule 1, as ownerEstimate), and each walk's liveness
	// and gain shares follow from the same value.
	_ = engine.ForEachChunk(e.parallelism, set.NumOwners(), 512, 256, func(_, _, lo, hi int) error {
		for i := lo; i < hi; i++ {
			nodes, off := set.ownerWalks(i)
			first, cnt := set.ownerOff[i], float64(len(off)-1)
			sum := 0.0
			for k := range len(off) - 1 {
				w := first + int32(k)
				val := set.endValue(nodes, off, k, w, e.b0)
				sum += val
				if rem := 1 - val; rem > 0 {
					e.live[w], e.share[w], e.addVal[w] = true, e.weight[i]*rem/cnt, rem/cnt
				} else {
					e.live[w], e.share[w], e.addVal[w] = false, 0, 0
				}
			}
			e.est[i] = sum / cnt
		}
		return nil
	})
	e.cumReady, e.entReady = false, false
	for _, x := range e.cumDirty {
		e.cumMark[x] = false
	}
	e.cumDirty = e.cumDirty[:0]
	for _, x := range e.rankDirty {
		e.rankMark[x] = false
	}
	e.rankDirty = e.rankDirty[:0]
}

func (e *Estimator) markCumDirty(x int32) {
	if e.cumMark[x] {
		return
	}
	e.cumMark[x] = true
	e.cumDirty = append(e.cumDirty, x)
}

func (e *Estimator) markRankDirty(x int32) {
	if e.rankMark[x] {
		return
	}
	e.rankMark[x] = true
	e.rankDirty = append(e.rankDirty, x)
}

// AddSeed applies a seed and refreshes the estimates: truncate only the
// walks containing u, record which walks transitioned live → dead,
// recompute only the affected owners' estimates, and dirty the gain caches
// along the affected walks. State after this call is bit-identical to
// set.AddSeed + Refresh.
func (e *Estimator) AddSeed(u int32) {
	set := e.set
	if set.IsSeed(u) {
		return
	}
	if e.ownerMark == nil {
		e.ownerMark = make([]bool, set.NumOwners())
	}
	e.changedOwners = e.changedOwners[:0]
	hits := set.AddSeed(u, func(w, oldEnd int32) {
		if !e.live[w] {
			// Already dead: the end pointer moved but the value stays 1, so
			// nothing to maintain.
			return
		}
		e.live[w] = false
		i := e.walkOwnerIdx[w]
		if !e.ownerMark[i] {
			e.ownerMark[i] = true
			e.changedOwners = append(e.changedOwners, i)
		}
		if e.cumReady || e.entReady {
			// Every distinct node on the walk's pre-truncation prefix loses
			// this walk's contribution.
			for _, x := range set.walk(w)[:oldEnd+1] {
				if e.cumReady {
					e.markCumDirty(x)
				}
				if e.entReady {
					e.markRankDirty(x)
				}
			}
		}
	})
	e.round.addTruncate(set, u, hits)
	if len(e.changedOwners) == 0 {
		return
	}
	// Only the changed owners' estimates move.
	owners := e.changedOwners
	_ = engine.ForEachChunk(e.parallelism, len(owners), 16, 256, func(_, _, lo, hi int) error {
		for _, i := range owners[lo:hi] {
			e.est[i] = set.ownerEstimate(int(i), e.b0)
		}
		return nil
	})
	// A changed owner's estimate shifts the rank-based gain of every
	// candidate holding entries on it; entries come from the owner's
	// surviving live walks, so those walks' nodes are dirty too.
	if e.entReady {
		for _, i := range owners {
			for w := set.ownerOff[i]; w < set.ownerOff[i+1]; w++ {
				if !e.live[w] {
					continue
				}
				for _, x := range set.active(w) {
					e.markRankDirty(x)
				}
			}
		}
	}
	e.pairwiseStale = true
	for _, i := range owners {
		e.ownerMark[i] = false
	}
}

// cumGainOf re-derives node u's cumulative marginal gain from its postings
// under the fold contract (rule 2): contributions are summed in walk order
// within each fixed scan shard, and the shard partials are folded in
// ascending shard order. A shard without a contribution folds +0, which
// changes no bit.
func (e *Estimator) cumGainOf(u int32) float64 {
	set := e.set
	g, partial := 0.0, 0.0
	shardHi := e.shardBounds[1:]
	it := set.postings(u)
	for ws, rels := it.block(); len(ws) > 0; ws, rels = it.block() {
		for j, w := range ws {
			for w >= shardHi[0] {
				g, partial, shardHi = g+partial, 0, shardHi[1:]
			}
			if e.live[w] && rels[j] <= set.end[w] {
				partial += e.share[w]
			}
		}
	}
	return g + partial
}

// bestCumulative is the argmax for the cumulative score (ties to the lowest
// id, only positive gains compete): cached per-node gains, recomputed only
// for nodes dirtied by the last seed's dead walks, with the candidate list
// compacted as gains drain to zero. Returns (-1, 0) when no node has
// positive support.
func (e *Estimator) bestCumulative() (int32, float64) {
	set := e.set
	n := set.N()
	if !e.cumReady {
		if e.cumGain == nil {
			e.cumGain = make([]float64, n)
			e.cumMark = make([]bool, n)
		}
		_ = engine.ForEachChunk(e.parallelism, n, 512, 256, func(_, _, lo, hi int) error {
			for u := lo; u < hi; u++ {
				e.cumGain[u] = e.cumGainOf(int32(u))
			}
			return nil
		})
		e.cumCand = e.cumCand[:0]
		for u := int32(0); u < int32(n); u++ {
			if e.cumGain[u] > 0 {
				e.cumCand = append(e.cumCand, u)
			}
		}
		e.cumReady = true
		entries, blocks := set.indexCost()
		e.accountGainScan(0, int64(n), entries, blocks)
	} else if len(e.cumDirty) > 0 {
		dirty := e.cumDirty
		_ = engine.ForEachChunk(e.parallelism, len(dirty), 256, 256, func(_, _, lo, hi int) error {
			for t := lo; t < hi; t++ {
				u := dirty[t]
				e.cumGain[u] = e.cumGainOf(u)
			}
			return nil
		})
		for _, x := range dirty {
			e.cumMark[x] = false
		}
		if obs.CostEnabled() {
			var entries, blocks int64
			for _, u := range dirty {
				en, bl := set.postingsCost(u)
				entries += en
				blocks += bl
			}
			hits := int64(len(e.cumCand)) - int64(len(dirty))
			if hits < 0 {
				hits = 0
			}
			e.accountGainScan(hits, int64(len(dirty)), entries, blocks)
		}
		e.cumDirty = dirty[:0]
	} else if obs.CostEnabled() {
		e.accountGainScan(int64(len(e.cumCand)), 0, 0, 0)
	}
	best, bestGain := int32(-1), 0.0
	kept := e.cumCand[:0]
	for _, u := range e.cumCand {
		g := e.cumGain[u]
		if g <= 0 {
			continue // all supporting walks died; out of the race for good
		}
		kept = append(kept, u)
		if set.inSeed[u] {
			continue
		}
		if g > bestGain || (g == bestGain && best >= 0 && u < best) {
			best, bestGain = u, g
		}
	}
	e.cumCand = kept
	return best, bestGain
}

// rebuildEntries re-derives candidate u's aggregated (owner, delta) entry
// list from its postings: one entry per owner with a surviving live walk
// containing u, deltas summed in walk order (fold contract, rule 3).
func (e *Estimator) rebuildEntries(u int32) {
	set := e.set
	eo, ed := e.entOwner[u][:0], e.entDelta[u][:0]
	cur := int32(-1)
	var delta float64
	it := set.postings(u)
	for ws, rels := it.block(); len(ws) > 0; ws, rels = it.block() {
		for j, w := range ws {
			if !e.live[w] || rels[j] > set.end[w] {
				continue
			}
			i := e.walkOwnerIdx[w]
			if i != cur {
				if cur >= 0 {
					eo = append(eo, cur)
					ed = append(ed, delta)
				}
				cur, delta = i, 0
			}
			delta += e.addVal[w]
		}
	}
	if cur >= 0 {
		eo = append(eo, cur)
		ed = append(ed, delta)
	}
	e.entOwner[u], e.entDelta[u] = eo, ed
}

// copelandGainPairs evaluates a candidate's Copeland marginal gain from an
// aggregated entry list (Equation 47): on a per-worker copy of the ±
// counters, owners ascending, remove the old comparison and add the new
// (fold contract, rule 4), then recount the one-on-one victories.
func (e *Estimator) copelandGainPairs(worker int, owners []int32, deltas []float64, curScore float64) float64 {
	scrPlus, scrMinus := e.cpPlus[worker], e.cpMinus[worker]
	copy(scrPlus, e.plus)
	copy(scrMinus, e.minus)
	for j, owner := range owners {
		delta := deltas[j]
		v := e.set.ownerNodes[owner]
		oldB := e.est[owner]
		newB := oldB + delta
		for x := range e.comp {
			if x == e.target {
				continue
			}
			cx := e.comp[x][v]
			switch {
			case oldB > cx:
				scrPlus[x] -= e.weight[owner]
			case oldB < cx:
				scrMinus[x] -= e.weight[owner]
			}
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
}

// bestRank is the argmax for the rank-dependent scores (ties to the lowest
// id, over candidates on at least one live walk): entry lists are kept
// across rounds and patched only for dirtied nodes; gains are re-evaluated
// for dirtied candidates (positional family) or for all candidates
// (Copeland — the ± counters are global inputs to every candidate, and at
// the start of a SelectGreedy run, where rankAll resets the score-specific
// gain cache). Returns (-1, 0) when no candidate is left.
func (e *Estimator) bestRank(pos voting.Positional, copeland bool, curScore float64) (int32, float64) {
	set := e.set
	n := set.N()
	rebuilt := !e.entReady
	if !e.entReady {
		if e.entOwner == nil {
			e.entOwner = make([][]int32, n)
			e.entDelta = make([][]float64, n)
			e.rankGain = make([]float64, n)
			e.rankMark = make([]bool, n)
		}
		_ = engine.ForEachChunk(e.parallelism, n, 512, 256, func(_, _, lo, hi int) error {
			for u := lo; u < hi; u++ {
				e.rebuildEntries(int32(u))
			}
			return nil
		})
		e.entCand = e.entCand[:0]
		for u := int32(0); u < int32(n); u++ {
			if len(e.entOwner[u]) > 0 {
				e.entCand = append(e.entCand, u)
			}
		}
		e.rankAll = true
		e.entReady = true
	} else if len(e.rankDirty) > 0 {
		dirty := e.rankDirty
		_ = engine.ForEachChunk(e.parallelism, len(dirty), 64, 256, func(_, _, lo, hi int) error {
			for t := lo; t < hi; t++ {
				e.rebuildEntries(dirty[t])
			}
			return nil
		})
	}
	e.ensureWorkerScratch()
	if copeland {
		e.pairwise()
	}
	evalList := e.rankDirty
	if e.rankAll || copeland {
		evalList = e.entCand
	}
	_ = engine.ForEachChunk(e.parallelism, len(evalList), 64, 256, func(worker, _, lo, hi int) error {
		for t := lo; t < hi; t++ {
			u := evalList[t]
			if set.inSeed[u] || len(e.entOwner[u]) == 0 {
				continue
			}
			owners, deltas := e.entOwner[u], e.entDelta[u]
			if copeland {
				e.rankGain[u] = e.copelandGainPairs(worker, owners, deltas, curScore)
				continue
			}
			gain := 0.0
			for j, i := range owners {
				v := set.ownerNodes[i]
				oldC := positionalContrib(e, v, e.est[i], pos.P, pos.Omega)
				newC := positionalContrib(e, v, e.est[i]+deltas[j], pos.P, pos.Omega)
				gain += e.weight[i] * (newC - oldC)
			}
			e.rankGain[u] = gain
		}
		return nil
	})
	if obs.CostEnabled() {
		// Postings work: a rebuild drains every node's postings; a patch
		// drains only the dirtied candidates'. Gains outside evalList are
		// cache hits. Derived from prefix sums — nothing counted in-loop.
		var entries, blocks int64
		if rebuilt {
			entries, blocks = set.indexCost()
		} else {
			for _, u := range e.rankDirty {
				en, bl := set.postingsCost(u)
				entries += en
				blocks += bl
			}
		}
		hits := int64(len(e.entCand)) - int64(len(evalList))
		if hits < 0 {
			hits = 0
		}
		e.accountGainScan(hits, int64(len(evalList)), entries, blocks)
	}
	for _, x := range e.rankDirty {
		e.rankMark[x] = false
	}
	e.rankDirty = e.rankDirty[:0]
	e.rankAll = false
	best, bestGain := int32(-1), math.Inf(-1)
	kept := e.entCand[:0]
	for _, u := range e.entCand {
		if len(e.entOwner[u]) == 0 {
			continue // every supporting walk died; never a candidate again
		}
		kept = append(kept, u)
		if set.inSeed[u] {
			continue
		}
		g := e.rankGain[u]
		if g > bestGain || (g == bestGain && best >= 0 && u < best) {
			best, bestGain = u, g
		}
	}
	e.entCand = kept
	if best < 0 {
		return -1, 0
	}
	return best, bestGain
}
