package service

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"ovm/internal/core"
	"ovm/internal/dynamic"
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
// query pinned to epoch N can only ever see epoch-N values. An update builds
// epoch N+1's memo before N+1 is visible, from N's (inherit): each (target,
// horizon) value is shared where the batch touched none of its candidates,
// patched by the frontier kernel where it touched a few and the update's
// patch budget lasts, and otherwise left to be rebuilt at first use; seed
// prefixes and exact values start empty. Every value is deterministic and
// immutable once stored (but for a carried value's read mark, an atomic),
// so nothing is locked while one is computed and a racing double
// computation is harmless.
// A cancelled or failed computation stores nothing.

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
		"Competitor-row lookups that diffused the rows (first use per epoch, target and horizon of rows no update carried)")
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

// Carry accounting, per update: what the successor epoch did with each
// (target, horizon) value its predecessor held. shared + patched + dropped =
// the values held.
var (
	memoShared  = carriedCounter("shared")
	memoPatched = carriedCounter("patched")
	memoDropped = carriedCounter("dropped")
)

func carriedCounter(how string) *obs.Counter {
	return obs.Default().NewCounter("ovm_core_competitor_memo_carried_total",
		"Per-epoch (target, horizon) values an update handed to the next epoch: shared untouched, patched by the frontier kernel, or dropped to be rebuilt at first use",
		obs.Label{Name: "how", Value: how})
}

// carriedReads counts the carried values an epoch went on to read; over
// carriedReads / (shared + patched) of the carry counters, it is the share
// of the carry's work that a later query used.
var carriedReads = obs.NewCounter("ovm_core_competitor_memo_carried_reads_total",
	"Per-epoch (target, horizon) values an update carried (shared or patched) that the new epoch then read at least once")

// horizonRows is what an epoch keeps per (target, horizon): the competitors'
// seedless rows at the horizon, and the target's seedless trajectory to it
// (nil when it would not fit the memo). Row 0 of the trajectory is the
// system's own Init slice and weighs nothing here. carried marks a value an
// update handed on; read, whether its epoch has looked it up since.
type horizonRows struct {
	target, horizon int
	comp            [][]float64
	traj            [][]float64
	carried         bool
	read            atomic.Bool
}

// carry returns h for the system sys that a batch derived from h's, where
// touched[q] are the nodes the batch moved for candidate q, how it was
// carried, and the work its patches did (opinion.PatchTrajectory's). A row
// or trajectory whose candidate the batch left alone is shared. The target's
// trajectory, and a competitor's row at horizon 1 (its trajectory is
// [Init, row]), are patched, bit for bit a fresh diffusion, within maxWork
// in all. A value with a touched competitor at another horizon, or a patch
// that gives up, is dropped: nil.
func (h *horizonRows) carry(ctx context.Context, sys *opinion.System, touched [][]int32, maxWork int64, parallelism int) (*horizonRows, *obs.Counter, int64) {
	out := &horizonRows{target: h.target, horizon: h.horizon, comp: slices.Clone(h.comp), carried: true}
	how, work := memoShared, int64(0)
	patch := func(q int, base [][]float64) [][]float64 {
		if work >= maxWork {
			return nil
		}
		traj, w, err := opinion.PatchTrajectory(ctx, sys.Candidate(q), base, touched[q], maxWork-work, parallelism)
		work += w
		if err != nil || traj == nil {
			return nil
		}
		how = memoPatched
		return traj
	}
	for q, row := range h.comp {
		if row == nil || len(touched[q]) == 0 {
			continue
		}
		if h.horizon != 1 {
			return nil, memoDropped, work
		}
		traj := patch(q, [][]float64{sys.Candidate(q).Init, row})
		if traj == nil {
			return nil, memoDropped, work
		}
		out.comp[q] = traj[1]
	}
	switch {
	case h.traj == nil:
	case len(touched[h.target]) == 0:
		out.traj = slices.Concat([][]float64{sys.Candidate(h.target).Init}, h.traj[1:])
	default:
		if out.traj = patch(h.target, h.traj); out.traj == nil {
			return nil, memoDropped, work
		}
	}
	return out, how, work
}

// inherit fills ds's memo, before ds is visible, with what prev's memo holds
// per (target, horizon), carried across the batch behind cs (horizonRows.
// carry). A nil cs says ds's system equals prev's bit for bit (an epoch a
// failed batch consumed, a checkpoint's rebase), so everything is shared.
//
// The patches of one update do at most one dense rebuild's work in all, as
// opinion.PatchTrajectory counts work: that of the value holding the
// deepest trajectory, r trajectories to its horizon h, r·h·(m + n).
// However many keys the memo holds, the carry then delays visibility by no
// more than one value's rebuild, and the values read most recently get the
// budget first; once it is spent a value that needs a patch is dropped
// without one.
func (ds *Dataset) inherit(ctx context.Context, prev *Dataset, cs *dynamic.ChangeSet, parallelism int) {
	touched := make([][]int32, ds.sys.R())
	if cs != nil {
		for q := range touched {
			touched[q] = cs.Touched(q)
		}
	}
	held := prev.memo.entries()
	var budget int64
	for _, e := range held {
		if rows, ok := e.val.(*horizonRows); ok {
			g := ds.sys.Candidate(rows.target).G
			budget = max(budget, int64(ds.sys.R()*max(1, len(rows.traj)-1))*int64(g.M()+g.N()))
		}
	}
	carried := make([]lruEntry, 0, len(held))
	for i := len(held) - 1; i >= 0; i-- {
		rows, ok := held[i].val.(*horizonRows)
		if !ok {
			continue
		}
		next, how, work := rows.carry(ctx, ds.sys, touched, budget, parallelism)
		budget -= work
		how.Inc()
		if next != nil {
			carried = append(carried, lruEntry{key: held[i].key, val: next})
		}
	}
	// Least recently used first, as they were held.
	for _, e := range slices.Backward(carried) {
		ds.memo.Put(e.key, e.val)
	}
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
		if rows.carried && !rows.read.Load() && rows.read.CompareAndSwap(false, true) {
			carriedReads.Inc()
		}
	} else {
		compMemoMisses.Inc()
		rows = &horizonRows{target: target, horizon: horizon}
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
