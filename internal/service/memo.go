package service

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"unsafe"

	"ovm/internal/core"
	"ovm/internal/methods"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// What an epoch remembers. Three kinds of derived value depend on the epoch's
// system and artifacts but not on the request that first needed them: per
// (target, horizon), the competitors' horizon opinions and the target's
// seedless trajectory; per (walk artifact, score), the greedy seed sequence;
// per (walk artifact, score, k), the exact value of that sequence's first k
// seeds. All live in Dataset.memo, so they live and die with their Dataset: a
// query pinned to epoch N can only ever see epoch-N values, and an update
// starts epoch N+1 empty. Every value is deterministic and immutable once
// stored, so nothing is locked while one is computed and a racing double
// computation is harmless. A cancelled or failed computation stores nothing.

// epochMemoBytes bounds the memory one Dataset's memo pins, least recently
// used first out. The keys come from request fields (horizon, k, positional
// ω) and a value grows with the horizon, so without a byte bound a client
// sweeping horizons pins (r−1+t)·n·8 bytes per value for the life of the
// epoch. A deployment asks a handful of (target, horizon) pairs and scores
// per epoch: the budget holds the rows and the horizon-10 trajectory of a
// 1M-node, 4-candidate system (24 + 80 MB). An evicted value is recomputed on
// next use; a trajectory that would not fit is not built (see instance).
const epochMemoBytes = 128 << 20

// Memo accounting. A competitor hit hands back the epoch's rows, a miss
// diffuses r−1 of them and the target's trajectory. Over index-served
// selections and min-seeds probes, rounds run + rounds reused = Σ k exactly.
// Over index-served selections, value hits + value misses = answers computed,
// and every miss is one exact evaluation.
var (
	compMemoHits = obs.NewCounter("ovm_core_competitor_memo_hits_total",
		"Exact evaluations and selections served competitor rows from the per-epoch memo")
	compMemoMisses = obs.NewCounter("ovm_core_competitor_memo_misses_total",
		"Competitor-row lookups that diffused the rows (first use per epoch, target and horizon)")
	greedyRoundsRun = obs.NewCounter("ovm_greedy_rounds_run_total",
		"Greedy rounds computed by index-served selections and min-seeds probes")
	greedyRoundsReused = obs.NewCounter("ovm_greedy_rounds_reused_total",
		"Greedy rounds index-served selections and min-seeds probes took from the per-epoch seed prefix")
	greedyPrefixSlices = obs.NewCounter("ovm_greedy_prefix_slices_total",
		"Index-served selections and probes answered entirely from the per-epoch seed prefix")
	greedyPrefixContinues = obs.NewCounter("ovm_greedy_prefix_continues_total",
		"Index-served selections and probes that extended a non-empty per-epoch seed prefix")
	prefixValueHits = obs.NewCounter("ovm_greedy_prefix_value_hits_total",
		"Index-served selections whose exact value the epoch had already scored for that artifact, score and k")
	prefixValueMisses = obs.NewCounter("ovm_greedy_prefix_value_misses_total",
		"Index-served selections that evaluated their seeds exactly (first score per epoch, artifact, score and k)")
)

// horizonRows is what an epoch keeps per (target, horizon): the competitors'
// seedless rows at the horizon, and the target's seedless trajectory to it
// (nil when it would not fit the memo). Row 0 of the trajectory is the
// system's own Init slice and weighs nothing here.
type horizonRows struct {
	comp [][]float64
	traj [][]float64
}

func (h *horizonRows) cacheBytes() int64 {
	var floats int
	for _, row := range h.comp {
		floats += len(row)
	}
	if len(h.traj) > 1 {
		floats += (len(h.traj) - 1) * len(h.traj[1])
	}
	return 8 * int64(floats)
}

// instance returns the (target, horizon) evaluation instance of this epoch.
// Neither the competitor rows nor the target's seedless trajectory depend on
// the target's seeds, so they are diffused once per (target, horizon) and
// memoized; every greedy and every exact evaluation of the epoch then shares
// them read-only and pays only for the nodes its own seeds reach. When rows
// and trajectory together would exceed the memo budget the trajectory is not
// built, and the instance evaluates densely.
func (ds *Dataset) instance(ctx context.Context, target, horizon, parallelism int) (*core.Instance, error) {
	key := "comp|" + strconv.Itoa(target) + "|" + strconv.Itoa(horizon)
	var rows *horizonRows
	if v, ok := ds.memo.Get(key); ok {
		compMemoHits.Inc()
		rows = v.(*horizonRows)
	} else {
		compMemoMisses.Inc()
		rows = &horizonRows{}
		var err error
		if rows.comp, err = core.CompetitorOpinionsCtx(ctx, ds.sys, target, horizon, parallelism); err != nil {
			return nil, err
		}
		// Do rows and trajectory fit the budget together? Compared in rows,
		// not bytes: horizon is a request field of any size.
		rowBytes := max(8*int64(ds.sys.N()), 1)
		if int64(horizon) <= (epochMemoBytes-rows.cacheBytes())/rowBytes {
			if rows.traj, err = opinion.Trajectory(ctx, ds.sys.Candidate(target), horizon, nil, parallelism); err != nil {
				return nil, err
			}
		}
		// A racing miss stored equal rows first: share those.
		rows = ds.memo.PutUnless(key, rows, func(any) bool { return true }).(*horizonRows)
	}
	return &core.Instance{Sys: ds.sys, Target: target, Horizon: horizon, Comp: rows.comp, Traj: rows.traj, Parallelism: parallelism}, nil
}

// instanceOnce defers instance to the first call of the returned function;
// later calls get the same result. A request that turns out to need neither
// the competitor rows nor an evaluation never looks the instance up, so it
// cannot pay a memo build for rows it would not read.
func (ds *Dataset) instanceOnce(ctx context.Context, target, horizon, parallelism int) func() (*core.Instance, error) {
	return sync.OnceValues(func() (*core.Instance, error) {
		return ds.instance(ctx, target, horizon, parallelism)
	})
}

// sourceFor resolves the walk artifact that serves method under o: the one
// holding the very set methods.Select would draw for (score, o) on this
// target and horizon, so the greedy over it is the method's answer bit for
// bit. That is an RS sketch set at o's pinned θ, or the RW walk set of the
// cumulative score at o's λ. Nil when the method draws no such set or no
// artifact holds it.
func (ds *Dataset) sourceFor(method string, score voting.Score, target, horizon int, o methods.Options) (*walkArtifact, error) {
	want, ok, err := methods.FixedDraw(method, score, o)
	if err != nil || !ok {
		return nil, err
	}
	for _, a := range ds.walks {
		if a.draw == want && a.target == target && a.horizon == horizon {
			return a, nil
		}
	}
	return nil, nil
}

// defaultTheta resolves an omitted θ to that of the sketch artifact covering
// (target, horizon, seed), 0 when there is none, so requests may omit theta
// and still hit the index. Only RS reads θ.
func (ds *Dataset) defaultTheta(target, horizon int, seed int64) int {
	for _, a := range ds.walks {
		if a.draw.Theta > 0 && a.target == target && a.horizon == horizon && a.draw.Seed == seed {
			return a.draw.Theta
		}
	}
	return 0
}

// greedyPrefix is an immutable snapshot of the epoch's greedy run over one
// (artifact, score): the seeds in pick order. rounds holds one cost record
// per seed, or is nil once any of them ran with cost accounting off.
type greedyPrefix struct {
	seeds  []int32
	rounds []walks.RoundCost
}

func (p *greedyPrefix) cacheBytes() int64 {
	return 4*int64(len(p.seeds)) + int64(len(p.rounds))*int64(unsafe.Sizeof(walks.RoundCost{}))
}

// greedy returns the first p.K seeds of the epoch's greedy run over src for
// the score scoreKey canonically names. The greedy never looks at k, so a
// snapshot at least p.K long answers by slicing. A shorter one is continued
// on a private clone (walks.Draw.Greedy re-applies its seeds and runs
// only the missing rounds), and the result is published when it is longer
// than what is there by then. The first ask of an epoch continues from the
// empty prefix, which is the from-scratch selection. Only a continuation
// reads the competitor rows, so only it resolves instance.
func (ds *Dataset) greedy(src *walkArtifact, p *core.Problem, scoreKey string, instance func() (*core.Instance, error), parallelism int) (*greedyAnswer, error) {
	key := "greedy|" + src.key + "|" + scoreKey
	pre := &greedyPrefix{}
	if v, ok := ds.memo.Get(key); ok {
		pre = v.(*greedyPrefix)
	}
	ans := &greedyAnswer{}
	ans.RoundsReused = min(len(pre.seeds), p.K)
	if len(pre.seeds) < p.K {
		inst, err := instance()
		if err != nil {
			return nil, err
		}
		run, err := src.draw.Greedy(p, src.set.Clone(), inst.Comp, pre.seeds, parallelism)
		if err != nil {
			return nil, err
		}
		if len(pre.seeds) > 0 {
			replay := run.Replay
			ans.Replay = &replay
		}
		next := &greedyPrefix{seeds: run.Seeds}
		if len(pre.rounds) == len(pre.seeds) && len(run.Rounds) == p.K-len(pre.seeds) {
			next.rounds = append(pre.rounds[:len(pre.rounds):len(pre.rounds)], run.Rounds...)
		}
		// Two racing extensions computed the same seeds: the longer stays.
		ds.memo.PutUnless(key, next, func(resident any) bool {
			return len(resident.(*greedyPrefix).seeds) >= len(next.seeds)
		})
		pre = next
	}
	// The caller owns its seeds: the snapshot is shared with later requests.
	ans.seeds = slices.Clone(pre.seeds[:p.K])
	if len(pre.rounds) == len(pre.seeds) {
		ans.Rounds = pre.rounds[:p.K:p.K]
	}
	return ans, nil
}

// greedyAnswer is one request's share of the epoch's greedy run.
type greedyAnswer struct {
	seeds []int32
	GreedyWork
}

// prefixValue is the exact value of the first k seeds of the epoch's greedy
// run over one (artifact, score). Algorithms 4 and 5 never look at k, so
// within an epoch those seeds, and with them the value, are a function of the
// key alone.
type prefixValue struct {
	value  float64
	keyLen int
}

// prefixValueOverhead is what a memo entry pins besides its key bytes: this
// struct, the lruEntry, its list element and its map slot. A sweep of 12 000
// values under 24-byte keys measured 174 heap bytes per entry; the 8 value
// bytes alone would make a k-sweep to n look free.
const prefixValueOverhead = 168

func (v *prefixValue) cacheBytes() int64 { return prefixValueOverhead + int64(v.keyLen) }

// exactValue returns the exact value of seeds, which must be the first
// len(seeds) seeds greedy returns for (src, scoreKey) in this epoch, and
// whether the epoch already knew it. It is the one place an index-served
// exactValue comes from: a known value costs one memo read and no instance
// lookup; an unknown one is evaluated by the epoch's instance and published
// once the evaluation has completed.
func (ds *Dataset) exactValue(ctx context.Context, src *walkArtifact, scoreKey string, score voting.Score, seeds []int32, instance func() (*core.Instance, error)) (float64, bool, error) {
	key := "value|" + src.key + "|" + scoreKey + "|" + strconv.Itoa(len(seeds))
	if v, ok := ds.memo.Get(key); ok {
		return v.(*prefixValue).value, true, nil
	}
	inst, err := instance()
	if err != nil {
		return 0, false, err
	}
	value, err := inst.Evaluate(ctx, score, seeds)
	if err != nil {
		return 0, false, err
	}
	// A racing miss stored equal bits first: either stays.
	ds.memo.PutUnless(key, &prefixValue{value: value, keyLen: len(key)}, func(any) bool { return true })
	return value, false, nil
}

// greedyTally accumulates a request's greedy accounting; flush adds it to
// the counters once.
type greedyTally struct{ run, reused, slices, continues, valueHits, valueMisses int64 }

func (t *greedyTally) add(a *greedyAnswer) {
	k := len(a.seeds)
	t.run += int64(k - a.RoundsReused)
	t.reused += int64(a.RoundsReused)
	switch {
	case a.RoundsReused == k:
		t.slices++
	case a.RoundsReused > 0:
		t.continues++
	}
}

// addValue counts one exactValue answer.
func (t *greedyTally) addValue(reused bool) {
	if reused {
		t.valueHits++
	} else {
		t.valueMisses++
	}
}

func (t *greedyTally) flush() {
	greedyRoundsRun.Add(t.run)
	greedyRoundsReused.Add(t.reused)
	greedyPrefixSlices.Add(t.slices)
	greedyPrefixContinues.Add(t.continues)
	prefixValueHits.Add(t.valueHits)
	prefixValueMisses.Add(t.valueMisses)
}
