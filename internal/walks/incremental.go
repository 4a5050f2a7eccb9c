package walks

import (
	"math"

	"ovm/internal/engine"
	"ovm/internal/obs"
	"ovm/internal/voting"
)

// This file is the incremental selection engine: the postings-index-backed
// replacement for the per-round full walk rescan of the greedy loop.
//
// The structural fact it exploits: a walk's Y value only ever changes when
// a seed first lands on its active prefix — at that moment the value pins
// to 1 and the walk stops contributing to every estimate and every gain,
// forever. Live walks never change at all. Selection is therefore weighted
// max-cover over the node → walk postings, and per-round cost drops from
// O(total walk elements) to O(elements on the walks the chosen seed
// touches).
//
// Bit-identity with the full-scan reference is preserved by re-deriving
// every dirtied quantity with exactly the summation grouping and order the
// full scan uses (walk order within the fixed scan shards, shards folded
// ascending, per-owner entry deltas in walk order, the Copeland ± counters
// refolded over owners ascending) — an untouched quantity keeps a cached
// value that a recompute would reproduce bit-for-bit, so caching is
// invisible in the output at any parallelism.

// syncIncremental recomputes the per-walk liveness and gain-contribution
// caches from the set's current truncation state and invalidates the gain
// caches. Called from Refresh, so NewEstimator and direct set mutations
// both land in a consistent state.
func (e *Estimator) syncIncremental() {
	set := e.set
	nw := set.NumWalks()
	if e.live == nil {
		e.live = make([]bool, nw)
		e.share = make([]float64, nw)
		e.addVal = make([]float64, nw)
	}
	_ = engine.ForEachChunk(e.parallelism, nw, 4096, 256, func(_, _, lo, hi int) error {
		for w := lo; w < hi; w++ {
			val := set.WalkValue(w, e.b0)
			rem := 1 - val
			if rem <= 0 {
				e.live[w], e.share[w], e.addVal[w] = false, 0, 0
				continue
			}
			i := e.walkOwnerIdx[w]
			cnt := float64(set.OwnerWalkCount(int(i)))
			e.live[w] = true
			e.share[w] = e.weight[i] * rem / cnt
			e.addVal[w] = rem / cnt
		}
		return nil
	})
	e.invalidateIncrementalCaches()
	e.incrStale = false
}

// invalidateIncrementalCaches drops the gain caches (they are rebuilt on
// the next indexed round) and clears the dirty bookkeeping.
func (e *Estimator) invalidateIncrementalCaches() {
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

// addSeedIncremental applies a seed through the postings index: truncate
// only the walks containing u, record which walks transitioned live → dead,
// recompute only the affected owners' estimates, and dirty the gain caches
// along the affected walks. State after this call is bit-identical to
// set.AddSeed + Refresh.
func (e *Estimator) addSeedIncremental(u int32) {
	set := e.set
	if set.inSeed[u] {
		return
	}
	set.inSeed[u] = true
	set.seeds = append(set.seeds, u)
	if e.ownerMark == nil {
		e.ownerMark = make([]bool, set.NumOwners())
	}
	e.changedOwners = e.changedOwners[:0]
	hits := set.truncateIndexed(u, func(w, oldEnd int32) {
		if !e.live[w] {
			// Already dead: the truncation moved the end pointer (matching
			// the full scan) but the value stays 1, so nothing to maintain.
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
			for p := set.off[w]; p <= oldEnd; p++ {
				x := set.nodes[p]
				if e.cumReady {
					e.markCumDirty(x)
				}
				if e.entReady {
					e.markRankDirty(x)
				}
			}
		}
	})
	if obs.CostEnabled() {
		// Mirror truncateIndexed's global accounting into the current
		// greedy round, with identical values, so per-round EXPLAIN sums
		// reconcile with the /metrics counter deltas.
		entries, blocks := set.postingsCost(u)
		e.round.WalksTruncated += hits
		e.round.PostingsEntries += entries
		e.round.PostingsBlocks += blocks
	}
	if len(e.changedOwners) == 0 {
		return
	}
	// Recompute the changed owners' estimates from their walks — the same
	// walk-order sum EstimatePerOwner uses, restricted to the changed rows,
	// so every estimate matches a full refresh bit-for-bit.
	owners := e.changedOwners
	_ = engine.ForEachChunk(e.parallelism, len(owners), 16, 256, func(_, _, lo, hi int) error {
		for t := lo; t < hi; t++ {
			i := owners[t]
			wLo, wHi := set.ownerOff[i], set.ownerOff[i+1]
			sum := 0.0
			for w := wLo; w < wHi; w++ {
				sum += set.WalkValue(int(w), e.b0)
			}
			e.est[i] = sum / float64(wHi-wLo)
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
				for p := set.off[w]; p <= set.end[w]; p++ {
					e.markRankDirty(set.nodes[p])
				}
			}
		}
	}
	e.pairwiseStale = true
	for _, i := range owners {
		e.ownerMark[i] = false
	}
}

// cumGainOf re-derives node u's cumulative marginal gain from its postings,
// reproducing the full scan's floating-point result exactly: contributions
// are summed in walk order within each fixed scan shard, and non-empty
// shard partials are folded in ascending shard order.
func (e *Estimator) cumGainOf(u int32) float64 {
	set := e.set
	idx := set.idx
	if idx.compact != nil {
		return e.cumGainOfCompact(u)
	}
	lo, hi := idx.off[u], idx.off[u+1]
	if e.scanShards <= 1 {
		g := 0.0
		for p := lo; p < hi; p++ {
			w := idx.walk[p]
			if e.live[w] && set.off[w]+idx.pos[p] <= set.end[w] {
				g += e.share[w]
			}
		}
		return g
	}
	numWalks := set.NumWalks()
	g, partial := 0.0, 0.0
	s := 0
	_, shardHi := engine.ShardRange(numWalks, e.scanShards, 0)
	for p := lo; p < hi; p++ {
		w := idx.walk[p]
		for int(w) >= shardHi {
			if partial != 0 {
				g += partial
				partial = 0
			}
			s++
			_, shardHi = engine.ShardRange(numWalks, e.scanShards, s)
		}
		if e.live[w] && set.off[w]+idx.pos[p] <= set.end[w] {
			partial += e.share[w]
		}
	}
	if partial != 0 {
		g += partial
	}
	return g
}

// cumGainOfCompact is cumGainOf over the compact postings backing. The
// iterator yields postings in exactly the raw arrays' order, and the shard
// fold replicates the raw path's grouping, so the float result is
// bit-identical. The iterator is a stack value — no shared decode state,
// safe under the concurrent gain scans.
func (e *Estimator) cumGainOfCompact(u int32) float64 {
	set := e.set
	it := set.idx.compact.Iter(u)
	if e.scanShards <= 1 {
		g := 0.0
		for {
			w, rel, ok := it.Next()
			if !ok {
				return g
			}
			if e.live[w] && set.off[w]+rel <= set.end[w] {
				g += e.share[w]
			}
		}
	}
	numWalks := set.NumWalks()
	g, partial := 0.0, 0.0
	s := 0
	_, shardHi := engine.ShardRange(numWalks, e.scanShards, 0)
	for {
		w, rel, ok := it.Next()
		if !ok {
			break
		}
		for int(w) >= shardHi {
			if partial != 0 {
				g += partial
				partial = 0
			}
			s++
			_, shardHi = engine.ShardRange(numWalks, e.scanShards, s)
		}
		if e.live[w] && set.off[w]+rel <= set.end[w] {
			partial += e.share[w]
		}
	}
	if partial != 0 {
		g += partial
	}
	return g
}

// bestCumulativeIndexed is the incremental argmax for the cumulative score:
// cached per-node gains, recomputed only for nodes dirtied by the last
// seed's dead walks, with the candidate list compacted as gains drain to
// zero. Gains and the returned argmax are bit-identical to bestCumulative.
func (e *Estimator) bestCumulativeIndexed() (int32, float64) {
	set := e.set
	n := set.Graph().N()
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
		for _, x := range e.cumDirty {
			e.cumMark[x] = false
		}
		e.cumDirty = e.cumDirty[:0]
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
// containing u, deltas summed in walk order — exactly the consecutive
// aggregation the full-scan pass B + gain loop performs.
func (e *Estimator) rebuildEntries(u int32) {
	set := e.set
	idx := set.idx
	eo, ed := e.entOwner[u][:0], e.entDelta[u][:0]
	cur := int32(-1)
	var delta float64
	if idx.compact != nil {
		it := idx.compact.Iter(u)
		for {
			w, rel, ok := it.Next()
			if !ok {
				break
			}
			if !e.live[w] || set.off[w]+rel > set.end[w] {
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
	} else {
		for p := idx.off[u]; p < idx.off[u+1]; p++ {
			w := idx.walk[p]
			if !e.live[w] || set.off[w]+idx.pos[p] > set.end[w] {
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
// aggregated entry list, replicating bestCopeland's counter adjustments
// (remove old comparison, add new, owners ascending) on per-worker scratch.
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

// bestRankIndexed is the incremental argmax for the rank-dependent scores:
// entry lists are kept across rounds and patched only for dirtied nodes;
// gains are re-evaluated for dirtied candidates (positional family) or for
// all candidates (Copeland — the ± counters are global inputs to every
// candidate, and at the start of a SelectGreedy run, where rankAll resets
// the score-specific gain cache). Results are bit-identical to
// bestRankBased / bestCopeland.
func (e *Estimator) bestRankIndexed(pos voting.Positional, copeland bool, curScore float64) (int32, float64) {
	set := e.set
	n := set.Graph().N()
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
		for _, x := range e.rankDirty {
			e.rankMark[x] = false
		}
		e.rankDirty = e.rankDirty[:0]
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
