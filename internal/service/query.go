package service

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"ovm/internal/core"
	"ovm/internal/methods"
	"ovm/internal/obs"
	"ovm/internal/voting"
)

// The four query endpoints — select-seeds and min-seeds-to-win (Problems 1
// and 2), evaluate and wins — their wire types, and the memoize-coalesce-
// compute skeleton every one of them runs through.

// ScoreSpec is the wire form of a voting score.
type ScoreSpec struct {
	// Name is one of cumulative, plurality, p-approval, positional,
	// copeland, borda.
	Name string `json:"name"`
	// P parameterizes p-approval and positional.
	P int `json:"p,omitempty"`
	// Omega holds the positional weights ω[1..p] (positional only).
	Omega []float64 `json:"omega,omitempty"`
}

// build validates the spec against a system with r candidates.
func (sp ScoreSpec) build(r int) (voting.Score, *Error) {
	sc, err := voting.ParseScore(sp.Name, sp.P, sp.Omega, r)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	return sc, nil
}

// canonical renders the spec into the cache key with full float precision.
func (sp ScoreSpec) canonical() string {
	var sb strings.Builder
	sb.WriteString(sp.Name)
	if sp.P != 0 {
		fmt.Fprintf(&sb, "/p=%d", sp.P)
	}
	for _, w := range sp.Omega {
		sb.WriteByte('/')
		sb.WriteString(strconv.FormatFloat(w, 'g', -1, 64))
	}
	return sb.String()
}

// SelectSeedsRequest asks for a size-K seed set.
type SelectSeedsRequest struct {
	Dataset string    `json:"dataset"`
	Method  string    `json:"method"` // DM, RW, RS, IC, LT, GED-T, PR, RWR, DC
	Score   ScoreSpec `json:"score"`
	K       int       `json:"k"`
	Horizon int       `json:"horizon"`
	Target  int       `json:"target"`
	Seed    int64     `json:"seed,omitempty"`
	// Theta pins the RS sketch count; 0 uses the matching index artifact's
	// θ when one exists, falling back to the heuristic search.
	Theta int `json:"theta,omitempty"`
	// Parallelism overrides the service-wide engine worker knob for this
	// query (0 = service default). It never changes the response.
	Parallelism int `json:"parallelism,omitempty"`
	// Explain attaches the stage spans and cost-counter deltas to the
	// response. It never changes the result fields and is excluded from
	// the cache key.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMs overrides the service-wide query timeout for this request
	// (0 keeps the default). Like Parallelism it never changes the answer
	// and is excluded from the cache key.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MinEpoch blocks the query until the dataset's visible epoch reaches
	// this value (read-your-writes: pass the epoch an accepted update
	// promised). The wait is bounded by the query deadline.
	// Zero reads the current snapshot. Excluded from the cache key — the
	// answer depends only on the snapshot served.
	MinEpoch int64 `json:"minEpoch,omitempty"`
}

// SelectSeedsResponse reports the selected seeds and their exact score.
type SelectSeedsResponse struct {
	Seeds      []int32 `json:"seeds"`
	ExactValue float64 `json:"exactValue"`
	Method     string  `json:"method"`
	// FromIndex reports whether a precomputed artifact served the query.
	FromIndex bool `json:"fromIndex"`
	// Epoch is the dataset version the answer was computed at.
	Epoch int64 `json:"epoch"`
	// Cached reports whether the response came from the LRU cache.
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsedMs"`
	// Explain is present only when the request asked for it; always the
	// last field so the result bytes are unchanged when absent.
	Explain *ExplainBlock `json:"explain,omitempty"`

	// work retains the per-greedy-round cost breakdown from the compute
	// that produced this value (RW/RS paths). Unexported: it rides the
	// cached value so explain works on cache hits, without ever appearing
	// in the serialized result.
	work GreedyWork
}

// EvaluateRequest asks for the exact score of a seed set.
type EvaluateRequest struct {
	Dataset     string    `json:"dataset"`
	Score       ScoreSpec `json:"score"`
	Horizon     int       `json:"horizon"`
	Target      int       `json:"target"`
	Seeds       []int32   `json:"seeds"`
	Parallelism int       `json:"parallelism,omitempty"`
	// Explain attaches the stage spans and cost-counter deltas.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMs overrides the service-wide query timeout (0 = default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MinEpoch waits for the dataset to reach this epoch before answering
	// (read-your-writes; see SelectSeedsRequest.MinEpoch).
	MinEpoch int64 `json:"minEpoch,omitempty"`
}

// EvaluateResponse reports an exact score.
type EvaluateResponse struct {
	Value     float64       `json:"value"`
	Epoch     int64         `json:"epoch"`
	Cached    bool          `json:"cached"`
	ElapsedMs float64       `json:"elapsedMs"`
	Explain   *ExplainBlock `json:"explain,omitempty"`
}

// WinsResponse reports the FJ-Vote-Win predicate for a seed set.
type WinsResponse struct {
	Wins      bool          `json:"wins"`
	Epoch     int64         `json:"epoch"`
	Cached    bool          `json:"cached"`
	ElapsedMs float64       `json:"elapsedMs"`
	Explain   *ExplainBlock `json:"explain,omitempty"`
}

// MinSeedsRequest asks for the smallest winning seed set (Problem 2).
type MinSeedsRequest struct {
	Dataset     string    `json:"dataset"`
	Method      string    `json:"method"` // DM, RW, RS
	Score       ScoreSpec `json:"score"`
	Horizon     int       `json:"horizon"`
	Target      int       `json:"target"`
	Seed        int64     `json:"seed,omitempty"`
	Theta       int       `json:"theta,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`
	// Explain attaches the stage spans and cost-counter deltas.
	Explain bool `json:"explain,omitempty"`
	// TimeoutMs overrides the service-wide query timeout (0 = default).
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// MinEpoch waits for the dataset to reach this epoch before answering
	// (read-your-writes; see SelectSeedsRequest.MinEpoch).
	MinEpoch int64 `json:"minEpoch,omitempty"`
}

// MinSeedsResponse reports the minimum winning seed set; CanWin is false
// when no seed set makes the target the strict winner.
type MinSeedsResponse struct {
	CanWin    bool          `json:"canWin"`
	K         int           `json:"k"`
	Seeds     []int32       `json:"seeds"`
	Epoch     int64         `json:"epoch"`
	Cached    bool          `json:"cached"`
	ElapsedMs float64       `json:"elapsedMs"`
	Explain   *ExplainBlock `json:"explain,omitempty"`
}

// validCommon checks the fields shared by every query shape. The target /
// horizon bounds are the same core.ValidateTargetHorizon the commands
// apply, so HTTP and CLI entry points reject exactly the same inputs (here
// as a typed bad_request, there as exit 2 + usage).
func (s *Service) validCommon(ds *Dataset, target, horizon, parallelism, timeoutMs int) *Error {
	if err := core.ValidateTargetHorizon(target, horizon, ds.sys.R()); err != nil {
		return badRequestf("%v", err)
	}
	if parallelism < 0 {
		return badRequestf("parallelism must be >= 0, got %d", parallelism)
	}
	if timeoutMs < 0 {
		return badRequestf("timeoutMs must be >= 0, got %d", timeoutMs)
	}
	return nil
}

func (s *Service) workers(reqParallelism int) int {
	if reqParallelism > 0 {
		return reqParallelism
	}
	return s.cfg.Parallelism
}

// reqContext derives the per-request context: the request's timeoutMs
// overrides Config.QueryTimeout; neither set leaves the caller's deadline
// (if any) in charge. The returned cancel must always be called.
func (s *Service) reqContext(ctx context.Context, timeoutMs int) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	d := s.cfg.QueryTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// cachedQuery is the shared memoize-coalesce-compute skeleton, and the
// query path's instrumentation point: it traces the cache-lookup /
// singleflight-wait / selection stages on a per-request span, records the
// endpoint × dataset × score latency histogram, and offers the finished
// span to the slow-query log. Callers stamp per-delivery fields (Cached,
// ElapsedMs, Explain) onto a copy of the shared response value; the
// returned span is finished and carries the cost-counter delta of the
// compute when this call led it.
//
// Request-ctx contract: the cache lookup always runs (a hit answers even a
// shedding or deadline-tight daemon); on a miss the computation is
// detached from ctx — ctx expiring makes this caller return its typed
// error promptly while the compute keeps serving the remaining coalesced
// waiters, and only when every waiter is gone is the compute cancelled.
// Admission control gates the compute inside the detached closure, so a
// slot is never consumed by a request that already gave up.
func (s *Service) cachedQuery(ctx context.Context, endpoint string, ds *Dataset, score, key string, compute func(ctx context.Context) (any, error)) (any, bool, *obs.Span, *Error) {
	span := obs.NewSpan(endpoint)
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	lookup := span.StartChild("cache-lookup")
	v, ok := s.cache.Get(key)
	lookup.End()
	if ok {
		s.cacheHits.Add(1)
		s.tel.observe(ctx, span, endpoint, ds.name, score, ds.epoch, true, "")
		return v, true, span, nil
	}
	s.cacheMisses.Add(1)
	doStart := time.Now()
	// The computation holds ds itself: it may outlive every waiter until its
	// next cancellation poll. Only a leader's closure runs.
	ds.hold()
	out, shared, werr := s.flight.Do(ctx, key, func(cctx context.Context) *computeOutcome {
		defer ds.release()
		if err := s.adm.acquire(cctx); err != nil {
			return &computeOutcome{err: err}
		}
		defer s.adm.release()
		if hook := s.cfg.computeContext; hook != nil {
			cctx = hook(cctx)
		}
		// Only the flight leader's goroutine runs this closure; the
		// selection time and cost delta ride the outcome so the leading
		// caller's span adopts them without racing the detached compute.
		// The cost delta brackets the compute: the counters are
		// process-global, so overlapping queries can bleed into each
		// other's deltas, but on an idle daemon the delta is exactly this
		// query's work (the explain-vs-/metrics reconciliation the smoke
		// test performs).
		s.computations.Add(1)
		before := obs.CaptureCosts()
		selStart := time.Now()
		v, err := compute(cctx)
		o := &computeOutcome{
			val:   v,
			err:   err,
			selNs: time.Since(selStart).Nanoseconds(),
			cost:  obs.CaptureCosts().Delta(before),
		}
		if err == nil {
			s.cache.Put(key, v)
		}
		return o
	})
	if shared {
		ds.release()
		s.coalesced.Add(1)
		span.Add("singleflight-wait", time.Since(doStart))
	}
	err := werr
	if err == nil {
		if !shared {
			span.Children = append(span.Children, &obs.Span{Name: "selection", DurNs: out.selNs})
			span.Cost = out.cost
		}
		err = out.err
	}
	if err != nil {
		serr := asError(err)
		switch serr.Code {
		case CodeOverloaded:
			s.shed.Add(1)
		case CodeDeadlineExceeded:
			s.timeouts.Add(1)
		case CodeCanceled:
			s.canceledReqs.Add(1)
		}
		s.errorCount.Add(1)
		s.tel.observe(ctx, span, endpoint, ds.name, score, ds.epoch, false, string(serr.Code))
		return nil, false, span, serr
	}
	s.tel.observe(ctx, span, endpoint, ds.name, score, ds.epoch, shared, "")
	return out.val, shared, span, nil
}

func seedsKey(seeds []int32) string {
	sorted := append([]int32(nil), seeds...)
	slices.Sort(sorted)
	buf := make([]byte, 0, 8*len(sorted))
	for i, v := range sorted {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return string(buf)
}

// SelectSeeds answers a select-seeds query, preferring precomputed index
// artifacts when the request parameters match one.
func (s *Service) SelectSeeds(req *SelectSeedsRequest) (*SelectSeedsResponse, *Error) {
	return s.SelectSeedsCtx(context.Background(), req)
}

// SelectSeedsCtx is SelectSeeds bounded by ctx (plus the configured query
// timeout): when the deadline expires or the caller cancels, it returns a
// typed deadline_exceeded / canceled error promptly — the computation is
// abandoned at its next shard or greedy-round boundary, no partial state
// is cached or memoized, and an immediate retry of the same query is
// byte-identical to a never-cancelled run.
func (s *Service) SelectSeedsCtx(ctx context.Context, req *SelectSeedsRequest) (*SelectSeedsResponse, *Error) {
	start := time.Now()
	// The request context is derived before the dataset fetch so a
	// minEpoch wait is bounded by the same deadline as the compute.
	ctx, cancel := s.reqContext(ctx, req.TimeoutMs)
	defer cancel()
	ds, serr := s.datasetAtEpoch(ctx, req.Dataset, req.MinEpoch)
	if serr != nil {
		return nil, serr
	}
	defer ds.release()
	if serr := s.validCommon(ds, req.Target, req.Horizon, req.Parallelism, req.TimeoutMs); serr != nil {
		return nil, serr
	}
	if req.K < 1 || req.K > ds.sys.N() {
		return nil, badRequestf("need 1 <= k <= %d, got k=%d", ds.sys.N(), req.K)
	}
	if req.Theta < 0 {
		return nil, badRequestf("theta must be >= 0, got %d", req.Theta)
	}
	score, serr := req.Score.build(ds.sys.R())
	if serr != nil {
		return nil, serr
	}
	method := req.Method
	if !slices.Contains(methods.Names, method) {
		return nil, badRequestf("unknown method %q", method)
	}
	// Resolve θ before keying the cache so an explicit θ and an omitted one
	// that resolves to the same artifact share an entry.
	theta := req.Theta
	if theta == 0 {
		theta = ds.defaultTheta(req.Target, req.Horizon, req.Seed)
	}
	// The epoch scopes cache entries per dataset version: an update bumps
	// it, making every pre-update entry unreachable (it then ages out of
	// the LRU) without a global cache flush.
	key := fmt.Sprintf("select|%s|e=%d|%s|%s|k=%d|t=%d|q=%d|seed=%d|theta=%d",
		req.Dataset, ds.epoch, method, req.Score.canonical(), req.K, req.Horizon, req.Target, req.Seed, theta)
	v, cached, span, serr := s.cachedQuery(ctx, endpointSelectSeeds, ds, req.Score.Name, key, func(cctx context.Context) (any, error) {
		return s.computeSelect(cctx, ds, req, score, theta, s.workers(req.Parallelism))
	})
	if serr != nil {
		return nil, serr
	}
	resp := *v.(*SelectSeedsResponse)
	// The value is shared with the response cache and coalesced followers.
	resp.Seeds = slices.Clone(resp.Seeds)
	resp.Cached = cached
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	if req.Explain {
		resp.Explain = explainBlock(span, resp.work)
	}
	return &resp, nil
}

// computeSelect runs a selection under ctx. Cancellation mid-greedy is
// safe for determinism: the RW/RS paths run on clones of the pristine
// artifact sets, every other selection draws only private state, and the
// epoch memo only ever stores complete values — so an abandoned run leaves
// nothing behind and a retry recomputes identically.
func (s *Service) computeSelect(ctx context.Context, ds *Dataset, req *SelectSeedsRequest, score voting.Score, theta, par int) (*SelectSeedsResponse, error) {
	prob := &core.Problem{Sys: ds.sys, Target: req.Target, Horizon: req.Horizon, K: req.K, Score: score, Ctx: ctx}
	opts := methods.Options{Seed: req.Seed, Parallelism: par}
	opts.RS.FixedTheta = theta
	src, err := ds.sourceFor(req.Method, score, req.Target, req.Horizon, opts)
	if err != nil {
		return nil, err
	}
	resp := &SelectSeedsResponse{Method: req.Method, Epoch: ds.epoch}
	if src != nil {
		// Seeds and value are both the epoch's: the instance is looked up
		// only if rounds must run or this (artifact, score, k) is unscored.
		instance := ds.instanceOnce(ctx, req.Target, req.Horizon, par)
		scoreKey := req.Score.canonical()
		var tally greedyTally
		defer tally.flush()
		ans, err := ds.greedy(src, prob, scoreKey, instance, par)
		if err != nil {
			return nil, err
		}
		tally.add(ans)
		resp.Seeds, resp.work, resp.FromIndex = ans.seeds, ans.GreedyWork, true
		if resp.ExactValue, resp.work.ValueReused, err = ds.exactValue(ctx, src, scoreKey, score, resp.Seeds, instance); err != nil {
			return nil, err
		}
		tally.addValue(resp.work.ValueReused)
		return resp, nil
	}
	inst, err := ds.instance(ctx, req.Target, req.Horizon, par)
	if err != nil {
		return nil, err
	}
	if resp.Seeds, resp.work.Rounds, err = methods.Select(req.Method, prob, opts); err != nil {
		return nil, err
	}
	if resp.ExactValue, err = inst.Evaluate(ctx, score, resp.Seeds); err != nil {
		return nil, err
	}
	return resp, nil
}

// Evaluate answers an exact-score query.
func (s *Service) Evaluate(req *EvaluateRequest) (*EvaluateResponse, *Error) {
	return s.EvaluateCtx(context.Background(), req)
}

// EvaluateCtx is Evaluate bounded by ctx plus the configured query timeout.
func (s *Service) EvaluateCtx(ctx context.Context, req *EvaluateRequest) (*EvaluateResponse, *Error) {
	start := time.Now()
	ctx, cancel := s.reqContext(ctx, req.TimeoutMs)
	defer cancel()
	ds, score, serr := s.evalCommon(ctx, req)
	if serr != nil {
		return nil, serr
	}
	defer ds.release()
	key := fmt.Sprintf("eval|%s|e=%d|%s|t=%d|q=%d|seeds=%s",
		req.Dataset, ds.epoch, req.Score.canonical(), req.Horizon, req.Target, seedsKey(req.Seeds))
	v, cached, span, serr := s.cachedQuery(ctx, endpointEvaluate, ds, req.Score.Name, key, func(cctx context.Context) (any, error) {
		inst, err := ds.instance(cctx, req.Target, req.Horizon, s.workers(req.Parallelism))
		if err != nil {
			return nil, err
		}
		val, err := inst.Evaluate(cctx, score, req.Seeds)
		if err != nil {
			return nil, err
		}
		return &EvaluateResponse{Value: val, Epoch: ds.epoch}, nil
	})
	if serr != nil {
		return nil, serr
	}
	resp := *v.(*EvaluateResponse)
	resp.Cached = cached
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	if req.Explain {
		resp.Explain = explainBlock(span, GreedyWork{})
	}
	return &resp, nil
}

// Wins answers the FJ-Vote-Win predicate for a seed set.
func (s *Service) Wins(req *EvaluateRequest) (*WinsResponse, *Error) {
	return s.WinsCtx(context.Background(), req)
}

// WinsCtx is Wins bounded by ctx plus the configured query timeout.
func (s *Service) WinsCtx(ctx context.Context, req *EvaluateRequest) (*WinsResponse, *Error) {
	start := time.Now()
	ctx, cancel := s.reqContext(ctx, req.TimeoutMs)
	defer cancel()
	ds, score, serr := s.evalCommon(ctx, req)
	if serr != nil {
		return nil, serr
	}
	defer ds.release()
	key := fmt.Sprintf("wins|%s|e=%d|%s|t=%d|q=%d|seeds=%s",
		req.Dataset, ds.epoch, req.Score.canonical(), req.Horizon, req.Target, seedsKey(req.Seeds))
	v, cached, span, serr := s.cachedQuery(ctx, endpointWins, ds, req.Score.Name, key, func(cctx context.Context) (any, error) {
		inst, err := ds.instance(cctx, req.Target, req.Horizon, s.workers(req.Parallelism))
		if err != nil {
			return nil, err
		}
		ok, err := inst.Wins(cctx, score, req.Seeds)
		if err != nil {
			return nil, err
		}
		return &WinsResponse{Wins: ok, Epoch: ds.epoch}, nil
	})
	if serr != nil {
		return nil, serr
	}
	resp := *v.(*WinsResponse)
	resp.Cached = cached
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	if req.Explain {
		resp.Explain = explainBlock(span, GreedyWork{})
	}
	return &resp, nil
}

// evalCommon returns the dataset held, as datasetAtEpoch does, when the
// request is valid.
func (s *Service) evalCommon(ctx context.Context, req *EvaluateRequest) (*Dataset, voting.Score, *Error) {
	ds, serr := s.datasetAtEpoch(ctx, req.Dataset, req.MinEpoch)
	if serr != nil {
		return nil, nil, serr
	}
	score, serr := s.evalValid(ds, req)
	if serr != nil {
		ds.release()
		return nil, nil, serr
	}
	return ds, score, nil
}

func (s *Service) evalValid(ds *Dataset, req *EvaluateRequest) (voting.Score, *Error) {
	if serr := s.validCommon(ds, req.Target, req.Horizon, req.Parallelism, req.TimeoutMs); serr != nil {
		return nil, serr
	}
	for i, v := range req.Seeds {
		if v < 0 || int(v) >= ds.sys.N() {
			return nil, badRequestf("seeds[%d]=%d out of range [0,%d)", i, v, ds.sys.N())
		}
	}
	return req.Score.build(ds.sys.R())
}

// MinSeedsToWin answers a Problem-2 query: the smallest seed set with which
// the target strictly wins.
func (s *Service) MinSeedsToWin(req *MinSeedsRequest) (*MinSeedsResponse, *Error) {
	return s.MinSeedsToWinCtx(context.Background(), req)
}

// MinSeedsToWinCtx is MinSeedsToWin bounded by ctx plus the configured
// query timeout; cancellation is polled between probes and inside each
// probe's greedy rounds.
func (s *Service) MinSeedsToWinCtx(ctx context.Context, req *MinSeedsRequest) (*MinSeedsResponse, *Error) {
	start := time.Now()
	ctx, cancel := s.reqContext(ctx, req.TimeoutMs)
	defer cancel()
	ds, serr := s.datasetAtEpoch(ctx, req.Dataset, req.MinEpoch)
	if serr != nil {
		return nil, serr
	}
	defer ds.release()
	if serr := s.validCommon(ds, req.Target, req.Horizon, req.Parallelism, req.TimeoutMs); serr != nil {
		return nil, serr
	}
	if req.Theta < 0 {
		return nil, badRequestf("theta must be >= 0, got %d", req.Theta)
	}
	score, serr := req.Score.build(ds.sys.R())
	if serr != nil {
		return nil, serr
	}
	if !slices.Contains(methods.Proposed, req.Method) {
		return nil, badRequestf("min-seeds-to-win supports %s; got %q", strings.Join(methods.Proposed, ", "), req.Method)
	}
	key := fmt.Sprintf("minwin|%s|e=%d|%s|%s|t=%d|q=%d|seed=%d|theta=%d",
		req.Dataset, ds.epoch, req.Method, req.Score.canonical(), req.Horizon, req.Target, req.Seed, req.Theta)
	v, cached, span, serr := s.cachedQuery(ctx, endpointMinSeeds, ds, req.Score.Name, key, func(cctx context.Context) (any, error) {
		par := s.workers(req.Parallelism)
		inst, err := ds.instance(cctx, req.Target, req.Horizon, par)
		if err != nil {
			return nil, err
		}
		instance := func() (*core.Instance, error) { return inst, nil }
		// The raw θ: an omitted one keeps the heuristic-θ search per probe.
		opts := methods.Options{Seed: req.Seed, Parallelism: par}
		opts.RS.FixedTheta = req.Theta
		src, err := ds.sourceFor(req.Method, score, req.Target, req.Horizon, opts)
		if err != nil {
			return nil, err
		}
		base := core.Problem{Sys: ds.sys, Target: req.Target, Horizon: req.Horizon, K: 1, Score: score, Ctx: cctx}
		var tally greedyTally
		defer tally.flush()
		sel, err := methods.Selector(req.Method, base, opts)
		if err != nil {
			return nil, err
		}
		if src != nil {
			// Every probe reads the epoch's seed prefix instead, so Algorithm
			// 2's doubling and binary search run each greedy round at most once.
			scoreKey := req.Score.canonical()
			sel = func(k int) ([]int32, error) {
				p := base
				p.K = k
				ans, err := ds.greedy(src, &p, scoreKey, instance, par)
				if err != nil {
					return nil, err
				}
				tally.add(ans)
				return ans.seeds, nil
			}
		}
		seeds, err := inst.MinSeedsToWin(cctx, score, sel)
		if err == core.ErrCannotWin {
			return &MinSeedsResponse{CanWin: false, Epoch: ds.epoch}, nil
		}
		if err != nil {
			return nil, err
		}
		return &MinSeedsResponse{CanWin: true, K: len(seeds), Seeds: seeds, Epoch: ds.epoch}, nil
	})
	if serr != nil {
		return nil, serr
	}
	resp := *v.(*MinSeedsResponse)
	resp.Seeds = slices.Clone(resp.Seeds) // as in SelectSeedsCtx
	resp.Cached = cached
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	if req.Explain {
		resp.Explain = explainBlock(span, GreedyWork{})
	}
	return &resp, nil
}
