package service

import (
	"ovm/internal/obs"
	"ovm/internal/walks"
)

// ExplainBlock is the observability attachment a query returns when the
// request sets "explain": true. It never changes the result fields — it
// is stamped onto the per-delivery response copy after the shared value
// is resolved, so cached and uncached answers stay byte-identical once
// the explain block is stripped.
//
// Span is this request's stage trace (cache-lookup, singleflight-wait,
// selection). Cost is the registry-counter delta captured around the
// compute closure — it is populated only on the delivery that actually
// computed (the singleflight leader); cache hits and coalesced followers
// report no cost because they did no compute work. Under concurrent
// load the delta can include work from overlapping queries (the
// counters are process-global); on an idle daemon it is exact, which is
// what the reconciliation check in the smoke test relies on.
//
// GreedyWork describes the greedy computation that produced a select-seeds
// answer on the RW/RS paths, so it is retained with the cached value: a
// cache hit still explains how its answer was derived, even though its own
// Cost is empty.
type ExplainBlock struct {
	Span *obs.Span `json:"span"`
	Cost obs.Costs `json:"cost,omitempty"`
	GreedyWork
}

// GreedyWork is the per-round work breakdown of a greedy selection (walks
// truncated, postings entries/blocks touched, gain cache hits/misses per
// round). Rounds lists every round of the answer, wherever it ran. An
// index-served selection takes the first RoundsReused of them from the
// epoch's seed prefix: their records are those of the request that ran
// them, and this computation paid Replay, the truncations that re-apply
// those seeds, in their place. So on the delivery that computed,
// Σ Rounds[RoundsReused:] + Replay equals the Cost deltas of the walk and
// postings counters. ValueReused says the epoch had already scored this
// (artifact, score, k): the computation ran no diffusion for exactValue.
type GreedyWork struct {
	Rounds       []walks.RoundCost `json:"rounds,omitempty"`
	RoundsReused int               `json:"roundsReused,omitempty"`
	Replay       *walks.RoundCost  `json:"replay,omitempty"`
	ValueReused  bool              `json:"valueReused,omitempty"`
}

// explainBlock builds the block for one delivery. span is this request's
// trace; work is zero for methods without a greedy round structure.
func explainBlock(span *obs.Span, work GreedyWork) *ExplainBlock {
	return &ExplainBlock{Span: span, Cost: span.Cost, GreedyWork: work}
}
