package walks

import (
	"ovm/internal/obs"
	"ovm/internal/postings"
)

// Walk-layer cost accounting. All counts are derived at coarse serial
// points — once per seed insertion, once per greedy round, once per
// repair — never inside the sharded inner loops, so the bit-identical
// parallel scans gain no shared atomics. Postings work (entries,
// varint blocks) is computed arithmetically from the index prefix sums
// rather than counted during iteration.
var (
	walksTruncated = obs.NewCounter("ovm_walks_truncated_total",
		"Walk truncations applied by seed insertions (end-pointer moves)")
	gainCacheHits = obs.NewCounter("ovm_walks_gain_cache_hits_total",
		"Greedy-round candidate gains served from the incremental cache")
	gainCacheMisses = obs.NewCounter("ovm_walks_gain_cache_misses_total",
		"Greedy-round candidate gains recomputed from postings scans")
	repairOwnersRegen = obs.NewCounter("ovm_repair_owners_regenerated_total",
		"Walk owners regenerated by incremental repairs")
	repairWalksInvalid = obs.NewCounter("ovm_repair_walks_invalidated_total",
		"Walks invalidated (regenerated) by incremental repairs")
	repairWalksSeen = obs.NewCounter("ovm_repair_walks_seen_total",
		"Walks examined by incremental repairs")
	repairCopyBytes = obs.NewCounter("ovm_repair_copy_bytes_total",
		"Bytes walk-set repairs wrote: overlay walks, postings, owner table and bitmap, and fold bases")
	repairFolds = obs.NewCounter("ovm_repair_overlay_folds_total",
		"Walk-set repairs whose overlay outgrew its share of the walks and was folded into a fresh base")
	samplerRows = obs.NewCounter("ovm_sampler_rows_built_total",
		"Alias-sampler rows (one per node) built for walk grounds: every row for a new one, the changed columns' for one an update derives")
)

func init() {
	obs.NewGaugeFunc("ovm_repair_invalidated_walk_pct",
		"Percentage of examined walks invalidated across all repairs so far",
		func() float64 {
			seen := repairWalksSeen.Load()
			if seen == 0 {
				return 0
			}
			return 100 * float64(repairWalksInvalid.Load()) / float64(seen)
		})
}

// RoundCost is the work one greedy selection round performed, as
// reported by a query EXPLAIN: the chosen seed, the walks its insertion
// truncated, the postings work consumed (truncation + gain recompute),
// and the gain-cache hit/miss split. The same values are added to the
// global counters at the same sites, so per-query round sums reconcile
// exactly with /metrics counter deltas.
type RoundCost struct {
	Seed            int32 `json:"seed"`
	WalksTruncated  int64 `json:"walksTruncated"`
	PostingsEntries int64 `json:"postingsEntries"`
	PostingsBlocks  int64 `json:"postingsBlocks"`
	GainCacheHits   int64 `json:"gainCacheHits"`
	GainCacheMisses int64 `json:"gainCacheMisses"`
}

// postingsCost returns what a full drain of node u's postings costs:
// entries read from the base (the overlay-masked ones included) and the
// overlay, and varint blocks decoded (0 on a raw CSR base, which decodes
// nothing). Pure prefix-sum arithmetic.
func (set *Set) postingsCost(u int32) (entries, blocks int64) {
	if idx := set.idx; idx.compact != nil {
		entries, blocks = int64(idx.compact.Count(u)), int64(idx.compact.Blocks(u))
	} else {
		entries = int64(idx.off[u+1] - idx.off[u])
	}
	if ov := set.ov; ov != nil {
		entries += int64(ov.post.off[u+1] - ov.post.off[u])
	}
	return entries, blocks
}

// indexCost returns the cost of draining every node's postings — what a
// full gain-cache rebuild consumes.
func (set *Set) indexCost() (entries, blocks int64) {
	if idx := set.idx; idx.compact != nil {
		entries, blocks = idx.compact.TotalEntries(), idx.compact.TotalBlocks()
	} else {
		entries = int64(len(idx.walk))
	}
	if ov := set.ov; ov != nil {
		entries += int64(len(ov.post.walk))
	}
	return entries, blocks
}

// accountTruncate records one indexed truncation: the walks hit plus
// the postings drain that found them.
func (set *Set) accountTruncate(u int32, hits int64) {
	if !obs.CostEnabled() {
		return
	}
	walksTruncated.Add(hits)
	entries, blocks := set.postingsCost(u)
	postings.Account(entries, blocks)
}

// addTruncate mirrors accountTruncate's global accounting of one seed
// application into rc, with identical values, so per-round EXPLAIN sums
// reconcile with the /metrics counter deltas.
func (rc *RoundCost) addTruncate(set *Set, u int32, hits int64) {
	if !obs.CostEnabled() {
		return
	}
	entries, blocks := set.postingsCost(u)
	rc.WalksTruncated += hits
	rc.PostingsEntries += entries
	rc.PostingsBlocks += blocks
}

// beginRound resets the current round's cost accumulator.
func (e *Estimator) beginRound() { e.round = RoundCost{Seed: -1} }

// endRound stamps the chosen seed and appends the accumulated round
// cost. No-op when accounting is off (the accumulator stays zero).
func (e *Estimator) endRound(seed int32) {
	if !obs.CostEnabled() {
		return
	}
	e.round.Seed = seed
	e.roundCosts = append(e.roundCosts, e.round)
}

// resetRoundCosts clears the per-round cost history; SelectGreedy calls
// it so each run reports only its own rounds.
func (e *Estimator) resetRoundCosts() { e.roundCosts = e.roundCosts[:0] }

// RoundCosts returns the per-round work of the last SelectGreedy run
// (nil when cost accounting was off). The slice is owned by the
// estimator; callers must copy it to retain it past the next run.
func (e *Estimator) RoundCosts() []RoundCost { return e.roundCosts }

// accountGainScan records one gain-cache maintenance step: recomputed
// candidate gains (misses), cache-served gains (hits), and the postings
// work the recompute consumed — mirrored into the global counters and
// the current round accumulator with identical values.
func (e *Estimator) accountGainScan(hits, misses, entries, blocks int64) {
	if !obs.CostEnabled() {
		return
	}
	if hits > 0 {
		gainCacheHits.Add(hits)
	}
	if misses > 0 {
		gainCacheMisses.Add(misses)
	}
	postings.Account(entries, blocks)
	e.round.GainCacheHits += hits
	e.round.GainCacheMisses += misses
	e.round.PostingsEntries += entries
	e.round.PostingsBlocks += blocks
}
