// Package service is the query-serving core behind the ovmd daemon: a
// registry of named opinion systems with precomputed artifacts (sketch
// sets and walk sets), answering select-seeds, evaluate, wins, and
// min-seeds-to-win queries concurrently on the engine worker pool.
//
// Three properties define the serving contract:
//
//   - Determinism: every response is bit-identical to the corresponding
//     direct library call (ovm.SelectSeeds and friends) at any engine
//     parallelism. Indexed queries reuse persisted artifacts through the
//     same code path the library uses (walks.Draw.Greedy, the one greedy
//     under both walk methods), so load-not-recompute never changes an
//     answer; every other method runs methods.Select itself.
//   - Caching: responses are memoized in an LRU cache keyed by the
//     canonicalized request. The engine parallelism is deliberately
//     excluded from the key — results do not depend on it.
//   - Coalescing: identical concurrent queries collapse into one
//     computation (singleflight); the followers share the leader's result.
package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ovm/internal/core"
	"ovm/internal/dynamic"
	"ovm/internal/methods"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/rwalk"
	"ovm/internal/serialize"
	"ovm/internal/sketch"
	"ovm/internal/voting"
	"ovm/internal/walks"
)

// ErrorCode classifies a service failure for transport mapping.
type ErrorCode string

// The error taxonomy exposed over HTTP.
const (
	CodeBadRequest ErrorCode = "bad_request"
	CodeNotFound   ErrorCode = "not_found"
	CodeInternal   ErrorCode = "internal"
	// CodeDeadlineExceeded: the query's deadline (Config.QueryTimeout or the
	// request's timeoutMs) expired before the answer was ready → HTTP 504.
	CodeDeadlineExceeded ErrorCode = "deadline_exceeded"
	// CodeCanceled: the caller abandoned the request (client disconnect,
	// context cancellation) → HTTP 499.
	CodeCanceled ErrorCode = "canceled"
	// CodeOverloaded: admission control shed the computation (inflight cap
	// reached, wait queue full) → HTTP 429 with a Retry-After header.
	CodeOverloaded ErrorCode = "overloaded"
)

// Error is a typed service error; the HTTP layer maps Code to a status.
type Error struct {
	Code    ErrorCode
	Message string
	// RetryAfter, when positive, is the suggested client backoff in seconds
	// (set on overloaded errors; surfaced as the Retry-After header).
	RetryAfter int
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequestf(format string, args ...any) *Error {
	return &Error{Code: CodeBadRequest, Message: fmt.Sprintf(format, args...)}
}

func notFoundf(format string, args ...any) *Error {
	return &Error{Code: CodeNotFound, Message: fmt.Sprintf(format, args...)}
}

func internalErr(err error) *Error {
	return &Error{Code: CodeInternal, Message: err.Error()}
}

// asError folds an arbitrary error into the taxonomy: typed *Error values
// pass through, context expiry maps to deadline_exceeded / canceled (the
// cancellation layer returns ctx.Err() verbatim from shard and round
// boundaries, so errors.Is sees through any wrapping), and everything else
// is internal.
func asError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadlineExceeded, Message: "query deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &Error{Code: CodeCanceled, Message: "request canceled"}
	}
	return internalErr(err)
}

// Config tunes a Service.
type Config struct {
	// CacheSize caps the LRU response cache (entries; default 1024,
	// negative disables caching).
	CacheSize int
	// Parallelism is the engine worker knob applied to queries that do not
	// pin their own: 0 means GOMAXPROCS, 1 forces serial execution.
	Parallelism int
	// OnUpdate, when set, runs after a repair and before the post-update
	// dataset becomes visible: whatever must be durable first is written
	// here (ovmd logs a -sync-updates batch to the WAL, and checkpoints the
	// index file once the log is long). The batches are the raw accepted
	// batches in application order — the async pipeline may repair several
	// per swap, and batches recovered with SeedQueued pass through too —
	// and epoch is the dataset version after all of them. An error aborts
	// the update without swapping (the async applier retries).
	OnUpdate func(dataset string, batches []dynamic.Batch, epoch int64) error
	// AsyncUpdates routes updates through the durable queue + background
	// applier: POST /updates validates, logs (OnEnqueue), and returns the
	// target epoch immediately; the repair runs off the request path and
	// consecutive batches coalesce when provably equivalent. Off = the
	// classic blocking apply.
	AsyncUpdates bool
	// OnEnqueue, when set with AsyncUpdates, durably logs an accepted
	// batch BEFORE the accepted response is returned (ovmd appends it to
	// the index's write-ahead log). An error rejects the batch — nothing
	// is promised that is not on disk.
	OnEnqueue func(dataset string, batch dynamic.Batch, epoch int64) error
	// Logger, when set, emits structured log lines: queries at debug,
	// updates and failures at info/warn. Nil disables logging.
	Logger *obs.Logger
	// SlowQueryLog caps the slow-query ring (entries; default 32, negative
	// disables). SlowQueryThreshold is the minimum duration retained
	// (default 0: the ring holds the most recent queries, read back
	// slowest-first).
	SlowQueryLog       int
	SlowQueryThreshold time.Duration
	// UpdateLogDepth, when set, reports the persisted update-log depth per
	// dataset for /stats and /metrics (ovmd returns the WAL's entry count,
	// which a checkpoint resets, plus any log inside the index file it
	// loaded). When nil, the depth is the number of batches applied since
	// the dataset's base index — identical unless a checkpoint moves the
	// base out from under the service.
	UpdateLogDepth func(dataset string) int
	// TimeSeriesInterval, when positive, starts the in-process ring TSDB:
	// every registered cost counter/gauge plus the service counters are
	// sampled at this cadence and served from /debug/timeseries. Zero
	// leaves the sampler off (the ring still exists; tests drive it with
	// explicit samples). Call Close to stop the sampler goroutine.
	TimeSeriesInterval time.Duration
	// TimeSeriesCapacity caps the ring (points retained; <= 0 selects 720
	// — an hour of history at a 5s interval).
	TimeSeriesCapacity int
	// QueryTimeout bounds each query end to end (cache lookup, admission
	// wait, compute): an expired deadline returns a typed deadline_exceeded
	// error and the abandoned computation stops at its next cooperative
	// cancellation poll. Zero disables the server-wide bound. A request's
	// timeoutMs field overrides it per query.
	QueryTimeout time.Duration
	// MaxInflight caps concurrently executing computations (cache misses
	// that lead a singleflight). Zero disables admission control. Cache
	// hits are always served, even while compute is being shed.
	MaxInflight int
	// MaxQueue bounds how many computations may wait for a free slot once
	// MaxInflight is reached; overflow is shed with a typed overloaded
	// error (HTTP 429 + Retry-After). Zero sheds immediately when every
	// slot is busy. Ignored when MaxInflight is 0.
	MaxQueue int
	// DebugFaults enables the /debug/fault/* handlers (panic injection for
	// exercising the recovery middleware). Never enable in production.
	DebugFaults bool

	// computeContext, when set, wraps the detached compute context just
	// before the selection runs. Tests inject countdown contexts here to
	// cancel mid-greedy at a deterministic round.
	computeContext func(ctx context.Context) context.Context
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.SlowQueryLog == 0 {
		c.SlowQueryLog = 32
	}
	return c
}

// Service is a concurrent query server over registered datasets.
type Service struct {
	cfg Config
	mu  sync.RWMutex
	ds  map[string]*Dataset
	// anchors holds, per dataset with checkpoints, the version its last
	// export captured and what was swapped in on top of it (mapping.go).
	anchors map[string]*anchor
	cache   *lruCache
	flight  *flightGroup
	adm     *admission
	start   time.Time
	tel     *telemetry
	tsdb    *obs.TimeSeries

	// updMu serializes update application (sync ApplyUpdates calls and the
	// async applier's runs) so every epoch derives from its predecessor
	// (no lost updates); queries never take it.
	updMu sync.Mutex

	// epochCh is closed and replaced (under mu) on every dataset swap;
	// minEpoch waiters block on it. One channel covers all datasets —
	// swaps are rare and waiters re-check their dataset on every wake.
	epochCh chan struct{}

	// pipelines holds the per-dataset async update pipelines, created
	// lazily on the first enqueue (or WAL seed).
	pipMu     sync.Mutex
	pipelines map[string]*updatePipeline

	requests     atomic.Int64
	cacheHits    atomic.Int64
	cacheMisses  atomic.Int64
	coalesced    atomic.Int64
	computations atomic.Int64
	errorCount   atomic.Int64
	inflight     atomic.Int64
	updates      atomic.Int64
	coalescedOps atomic.Int64
	checkpoints  [len(checkpointReasons)]atomic.Int64 // by reason
	// checkpointNs totals the durations ObserveCheckpoint was given, so
	// persistUpdate can tell how much of a hook call was a checkpoint.
	checkpointNs atomic.Int64
	mappingsOpen atomic.Int64 // index file mappings datasets still hold
	shed         atomic.Int64
	timeouts     atomic.Int64
	canceledReqs atomic.Int64
	panics       atomic.Int64
}

// New creates an empty service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:       cfg,
		ds:        make(map[string]*Dataset),
		anchors:   make(map[string]*anchor),
		cache:     newLRUCache(cfg.CacheSize),
		flight:    newFlightGroup(),
		adm:       newAdmission(cfg.MaxInflight, cfg.MaxQueue),
		start:     time.Now(),
		tel:       newTelemetry(cfg),
		epochCh:   make(chan struct{}),
		pipelines: make(map[string]*updatePipeline),
	}
	// The ring samples the global cost registry plus the service's own
	// counters, so one /debug/timeseries window correlates serving load
	// (QPS, hit rate) with engine work (postings decoded, walks repaired).
	s.tsdb = obs.NewTimeSeries(cfg.TimeSeriesCapacity, obs.RegistrySource(), s.sampleServiceSeries)
	if cfg.TimeSeriesInterval > 0 {
		s.tsdb.Start(cfg.TimeSeriesInterval)
	}
	return s
}

// Close stops background goroutines: the async update appliers (an
// in-flight repair is abandoned at its next shard boundary; queued
// batches survive in the WAL when one is configured) and the time-series
// sampler. The service must not serve queries after Close.
func (s *Service) Close() {
	s.closePipelines()
	s.tsdb.Stop()
}

// TimeSeries exposes the in-process ring TSDB (the /debug/timeseries
// handler and tests read it; tests also drive Sample explicitly).
func (s *Service) TimeSeries() *obs.TimeSeries { return s.tsdb }

// sampleServiceSeries contributes the service-level counters to a
// time-series sample, alongside the registry's cost counters.
func (s *Service) sampleServiceSeries(sample func(name string, v float64)) {
	sample("ovmd_requests_total", float64(s.requests.Load()))
	sample("ovmd_cache_hits_total", float64(s.cacheHits.Load()))
	sample("ovmd_cache_misses_total", float64(s.cacheMisses.Load()))
	sample("ovmd_coalesced_total", float64(s.coalesced.Load()))
	sample("ovmd_computations_total", float64(s.computations.Load()))
	sample("ovmd_errors_total", float64(s.errorCount.Load()))
	sample("ovmd_updates_total", float64(s.updates.Load()))
	sample("ovmd_update_coalesced_ops_total", float64(s.coalescedOps.Load()))
	sample("ovmd_checkpoints_total", float64(s.checkpointTotal()))
	sample("ovmd_update_queue_depth", float64(s.totalQueueDepth()))
	sample("ovmd_inflight", float64(s.inflight.Load()))
	sample("ovmd_shed_total", float64(s.shed.Load()))
	sample("ovmd_timeouts_total", float64(s.timeouts.Load()))
	sample("ovmd_canceled_total", float64(s.canceledReqs.Load()))
	sample("ovmd_panics_total", float64(s.panics.Load()))
}

// Dataset is one registered opinion system plus its restored artifacts.
// Datasets are immutable snapshots (apart from the epoch memo):
// ApplyUpdates builds a successor and swaps the registry pointer, so
// in-flight queries keep a consistent view.
type Dataset struct {
	name      string
	sys       *opinion.System
	epoch     int64 // bumped once per applied update batch
	baseEpoch int64 // the loaded index's BaseEpoch; epoch-baseEpoch = applied batches
	walks     []*walkArtifact

	// memo holds what the epoch remembers between requests (memo.go).
	memo *lruCache

	// file is the index file mapping the arrays alias (nil when they are
	// the dataset's own); see mapping.go.
	file *mapping
}

// walkArtifact is a persisted walk set together with how it was drawn: an RS
// sketch set (θ sampled starts) or RW's cumulative walk set (λ walks per
// node). Only the edges that speak serialize's two artifact types or
// DatasetStats' two counts ask which.
type walkArtifact struct {
	key     string // names the artifact within its Dataset, in memo keys
	draw    walks.Draw
	target  int
	horizon int
	set     *walks.Set // pristine; queries run on clones
}

// AddDataset registers sys under name with no precomputed artifacts.
func (s *Service) AddDataset(name string, sys *opinion.System) error {
	return s.add(name, &serialize.Index{Sys: sys}, nil)
}

// AddIndex registers a loaded index under name, restoring every walk set
// into live, query-ready form (fresh truncation state, postings index
// adopted or built). A walk artifact that carries a live set (BuildIndex's,
// ExportIndex's) is adopted as it is.
func (s *Service) AddIndex(name string, idx *serialize.Index) error {
	return s.add(name, idx, nil)
}

// add registers the dataset restore builds; file, nil or holding the
// caller's one reference, is released if that fails.
func (s *Service) add(name string, idx *serialize.Index, file *mapping) error {
	if name == "" {
		file.release()
		return badRequestf("dataset name must not be empty")
	}
	ds, serr := s.restore(name, idx, file)
	if serr != nil {
		return serr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.ds[name]; dup {
		ds.release()
		return badRequestf("dataset %q already registered", name)
	}
	s.ds[name] = ds
	return nil
}

// restore builds the dataset an index describes, at the epoch its log
// reaches, holding file's reference (released on failure).
func (s *Service) restore(name string, idx *serialize.Index, file *mapping) (*Dataset, *Error) {
	if err := idx.Validate(); err != nil {
		file.release()
		return nil, badRequestf("invalid index: %v", err)
	}
	ds := &Dataset{
		name:      name,
		sys:       idx.Sys,
		epoch:     idx.BaseEpoch,
		baseEpoch: idx.BaseEpoch,
		memo:      newLRUCache(epochMemoBytes),
		file:      file,
	}
	// serialize keeps two artifact types; from here on a walk set is a walk
	// set, sketch sets first.
	restoreWalks := func(d walks.Draw, target, horizon int, live *walks.Set, snap *walks.Snapshot, index *walks.IndexSnapshot) error {
		i := len(ds.walks)
		set := live
		if set == nil {
			var err error
			if set, err = walks.FromSnapshot(idx.Sys.Candidate(target).G, snap); err != nil {
				return badRequestf("walk artifact %d: %v", i, err)
			}
		}
		want := d.Theta
		if want == 0 {
			want = d.Lambda * idx.Sys.N()
		}
		if set.NumWalks() != want {
			return badRequestf("walk artifact %d stores %d walks, want %d (theta=%d, lambda=%d)", i, set.NumWalks(), want, d.Theta, d.Lambda)
		}
		// Index once at load time: every per-query Clone shares the postings
		// index, so indexed queries ride the incremental greedy path without
		// paying a per-query index build. A v3 file carries the index; adopt
		// it (verified against storage) instead of rebuilding, falling back
		// to the rebuild if verification rejects it.
		if index == nil || set.AdoptIndex(index) != nil {
			set.EnsureIndex()
		}
		ds.walks = append(ds.walks, &walkArtifact{key: "w" + strconv.Itoa(i), draw: d, target: target, horizon: horizon, set: set})
		return nil
	}
	fail := func(serr *Error) (*Dataset, *Error) {
		ds.release()
		return nil, serr
	}
	for _, a := range idx.Sketches {
		if err := restoreWalks(sketch.Draw(a.Seed, a.Theta), a.Target, a.Horizon, a.Live, a.Set, a.Index); err != nil {
			return fail(asError(err))
		}
	}
	for _, a := range idx.Walks {
		if err := restoreWalks(rwalk.Draw(a.Seed, a.Lambda), a.Target, a.Horizon, a.Live, a.Set, a.Index); err != nil {
			return fail(asError(err))
		}
	}
	// Replay the index's update log through the same incremental-repair
	// path live updates use: the restarted daemon lands on exactly the
	// epoch (and bytes) the writer was serving.
	for i, b := range idx.Updates {
		next, _, serr := s.repairDataset(nil, ds, b, 1, nil)
		if serr != nil {
			return fail(badRequestf("replaying update batch %d: %s", i, serr.Message))
		}
		ds.release()
		ds = next
	}
	return ds, nil
}

// Datasets lists the registered dataset names, sorted.
func (s *Service) Datasets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.ds))
	for name := range s.ds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ResetCache drops every cached response (benchmarks and tests).
func (s *Service) ResetCache() { s.cache.Reset() }

// dataset returns the visible version of a dataset, held: the caller
// releases it once done reading.
func (s *Service) dataset(name string) (*Dataset, *Error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.ds[name]
	if !ok {
		// Collect names inline: calling Datasets() here would re-enter the
		// RLock and deadlock against a queued writer.
		names := make([]string, 0, len(s.ds))
		for n := range s.ds {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, notFoundf("unknown dataset %q (have: %s)", name, strings.Join(names, ", "))
	}
	ds.hold()
	return ds, nil
}

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
	// this value (read-your-writes with async updates: pass the epoch an
	// accepted update promised). The wait is bounded by the query deadline.
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
		s.tel.observe(span, endpoint, ds.name, score, ds.epoch, true, "")
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
		s.tel.observe(span, endpoint, ds.name, score, ds.epoch, false, string(serr.Code))
		return nil, false, span, serr
	}
	s.tel.observe(span, endpoint, ds.name, score, ds.epoch, shared, "")
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

// Stats is a point-in-time snapshot of the service counters.
//
// Consistency model: every counter is read exactly once with an atomic
// load, so each value is exact at its own read instant; the snapshot as a
// whole is not one instant (no global lock on the hot path). The loads
// are ordered opposite to the increments, which preserves the natural
// invariants mid-request: Computations+Coalesced <= CacheMisses and
// CacheHits+CacheMisses <= Requests always hold in a snapshot.
type Stats struct {
	UptimeSeconds  float64 `json:"uptimeSeconds"`
	Requests       int64   `json:"requests"`
	CacheHits      int64   `json:"cacheHits"`
	CacheMisses    int64   `json:"cacheMisses"`
	CacheHitRate   float64 `json:"cacheHitRate"`
	CacheEntries   int     `json:"cacheEntries"`
	CacheCapacity  int     `json:"cacheCapacity"`
	CacheEvictions int64   `json:"cacheEvictions"`
	Coalesced      int64   `json:"coalesced"`
	Computations   int64   `json:"computations"`
	Errors         int64   `json:"errors"`
	Inflight       int64   `json:"inflight"`
	Updates        int64   `json:"updates"`
	// UpdateQueueDepth is the total queued-but-unapplied async update
	// batches; CoalescedOps counts ops the async applier never had to
	// apply because batch merging elided them.
	UpdateQueueDepth int64 `json:"updateQueueDepth"`
	CoalescedOps     int64 `json:"coalescedOps"`
	// Checkpoints counts index-file checkpoints reported through
	// ObserveCheckpoint.
	Checkpoints int64 `json:"checkpoints"`
	// Shed / Timeouts / Canceled / Panics are the failure-mode counters:
	// computations shed by admission control, queries past their deadline,
	// queries abandoned by the client, and handler panics converted to 500s.
	// The first three are included in Errors.
	Shed     int64 `json:"shed"`
	Timeouts int64 `json:"timeouts"`
	Canceled int64 `json:"canceled"`
	Panics   int64 `json:"panics"`
	// Endpoints summarizes the request-latency histograms per endpoint
	// (merged across datasets and scores); the full per-label histograms
	// are on /metrics.
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
	Datasets  []DatasetStats           `json:"datasets"`
}

// EndpointStats is the latency summary of one endpoint.
type EndpointStats struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

// DatasetStats describes one registered dataset and its index footprint.
type DatasetStats struct {
	Name            string `json:"name"`
	Epoch           int64  `json:"epoch"`
	Nodes           int    `json:"nodes"`
	Edges           int    `json:"edges"`
	Candidates      int    `json:"candidates"`
	SketchArtifacts int    `json:"sketchArtifacts"`
	WalkArtifacts   int    `json:"walkArtifacts"`
	// IndexBytes = MappedBytes + HeapBytes: the artifact footprint, split
	// into bytes aliasing a read-only file mapping (shared, evictable page
	// cache) and bytes resident on the Go heap.
	IndexBytes  int64 `json:"indexBytes"`
	MappedBytes int64 `json:"mappedBytes"`
	HeapBytes   int64 `json:"heapBytes"`
	// UpdateLogDepth is the persisted update log's batch count INCLUDING
	// batches accepted but not yet applied (via Config.UpdateLogDepth when
	// serving an index file — a checkpoint resets it), falling back to the
	// batches applied since the base index plus the queue depth.
	UpdateLogDepth int64 `json:"updateLogDepth"`
	// UpdateQueueDepth is the accepted-but-unapplied batch count for this
	// dataset's async pipeline (0 when updates are synchronous).
	UpdateQueueDepth int64 `json:"updateQueueDepth"`
}

// StatsSnapshot assembles the /stats payload.
//
// Each counter is loaded exactly once, in the reverse of the order the
// hot path increments them (cachedQuery bumps requests, then hit or
// miss, then computation or coalesced). Loading downstream counters
// first means a request that lands mid-snapshot can only make the
// upstream totals larger, never smaller — so the documented invariants
// (hits+misses <= requests, computations+coalesced <= misses) hold in
// every snapshot without a lock on the recording side.
func (s *Service) StatsSnapshot() Stats {
	shed := s.shed.Load()
	timeouts := s.timeouts.Load()
	canceled := s.canceledReqs.Load()
	panics := s.panics.Load()
	computations := s.computations.Load()
	coalesced := s.coalesced.Load()
	errorCount := s.errorCount.Load()
	hits := s.cacheHits.Load()
	misses := s.cacheMisses.Load()
	updates := s.updates.Load()
	inflight := s.inflight.Load()
	requests := s.requests.Load()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	st := Stats{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Requests:       requests,
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheHitRate:   hitRate,
		CacheEntries:   s.cache.Len(),
		CacheCapacity:  s.cfg.CacheSize,
		CacheEvictions: s.cache.Evictions(),
		Coalesced:      coalesced,
		Computations:   computations,
		Errors:         errorCount,
		Inflight:       inflight,
		Updates:        updates,
		Shed:           shed,
		Timeouts:       timeouts,
		Canceled:       canceled,
		Panics:         panics,
		Endpoints:      s.endpointSummaries(),
	}
	st.UpdateQueueDepth = int64(s.totalQueueDepth())
	st.CoalescedOps = s.coalescedOps.Load()
	st.Checkpoints = s.checkpointTotal()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range sortedNames(s.ds) {
		ds := s.ds[name]
		d := DatasetStats{
			Name:       name,
			Epoch:      ds.epoch,
			Nodes:      ds.sys.N(),
			Edges:      ds.sys.Candidate(0).G.M(),
			Candidates: ds.sys.R(),
		}
		for _, a := range ds.walks {
			if a.draw.Theta > 0 {
				d.SketchArtifacts++
			} else {
				d.WalkArtifacts++
			}
			d.MappedBytes += a.set.MappedBytes()
			d.HeapBytes += a.set.HeapBytes()
		}
		d.IndexBytes = d.MappedBytes + d.HeapBytes
		d.UpdateQueueDepth = int64(s.QueueDepth(name))
		if s.cfg.UpdateLogDepth != nil {
			// ovmd's hook counts the whole WAL, so queued batches are
			// included.
			d.UpdateLogDepth = int64(s.cfg.UpdateLogDepth(name))
		} else {
			// Fallback: applied since the base index plus accepted-but-
			// unapplied — the depth a checkpoint would have to absorb.
			d.UpdateLogDepth = ds.epoch - ds.baseEpoch + d.UpdateQueueDepth
		}
		st.Datasets = append(st.Datasets, d)
	}
	return st
}

// Computations reports how many queries were actually computed (tests use
// it to prove singleflight coalescing).
func (s *Service) Computations() int64 { return s.computations.Load() }
