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
	"log/slog"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ovm/internal/dynamic"
	"ovm/internal/obs"
	"ovm/internal/opinion"
	"ovm/internal/serialize"
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
	// OnEnqueue, when set, durably logs an accepted batch BEFORE the
	// accepted response is returned (ovmd appends it to the index's
	// write-ahead log): the one durable write of every batch. An error
	// rejects the batch — nothing is promised that is not on disk.
	OnEnqueue func(dataset string, batch dynamic.Batch, epoch int64) error
	// OnUpdate, when set, runs after a repair and before the post-update
	// dataset becomes visible (ovmd checkpoints the index file here once
	// its log is long). The batches are the raw accepted batches in
	// application order — one repair may cover several, and batches
	// recovered with SeedQueued pass through too — and epoch is the dataset
	// version after all of them. An error aborts the swap; the applier
	// retries the run.
	OnUpdate func(dataset string, batches []dynamic.Batch, epoch int64) error
	// AsyncUpdates is ignored: every batch goes through the queue and the
	// background applier. The field survives only because the frozen
	// benchmark/target.go sets it; the benchmark re-base (ROADMAP item 1)
	// deletes it, as it does serialize.Index.RRs.
	AsyncUpdates bool
	// Logger, when set, emits structured log lines: queries at debug,
	// updates at info, failures at warn. Nil disables logging.
	Logger *slog.Logger
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
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
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

	// updMu serializes the appliers' runs (and Rebase) so every epoch
	// derives from its predecessor (no lost updates); queries never take it.
	updMu sync.Mutex

	// epochCh is closed and replaced (under mu) on every dataset swap;
	// minEpoch waiters block on it. One channel covers all datasets —
	// swaps are rare and waiters re-check their dataset on every wake.
	epochCh chan struct{}

	// pipelines holds the per-dataset async update pipelines, created
	// lazily on the first enqueue (or WAL seed).
	pipMu     sync.Mutex
	pipelines map[string]*updatePipeline

	// The service's counters and gauges, each declared once in reg
	// (registerMetrics), which /metrics, /stats and the ring all read.
	reg                                             obs.Registry
	requests, cacheHits, cacheMisses, coalesced     *obs.Counter
	computations, errorCount, updates, coalescedOps *obs.Counter
	shed, timeouts, canceledReqs, panics            *obs.Counter
	indexRebuilds                                   *obs.Counter
	checkpoints                                     map[CheckpointReason]*obs.Counter
	inflight, mappingsOpen                          *obs.Gauge
	// checkpointNs totals the durations ObserveCheckpoint was given, so
	// persistUpdate can tell how much of a hook call was a checkpoint.
	checkpointNs atomic.Int64
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
	s.registerMetrics()
	// The ring samples the global cost registry plus the service's own, so
	// one /debug/timeseries window correlates serving load (QPS, hit rate)
	// with engine work (postings decoded, walks repaired).
	s.tsdb = obs.NewTimeSeries(cfg.TimeSeriesCapacity, obs.RegistrySource(obs.Default()), obs.RegistrySource(&s.reg))
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
	// grounds holds, per target, the Ground the last repair drew over
	// (none until the first repair after a load): the next repair derives
	// its own from it, rebuilding only the sampler rows its batch changed.
	grounds map[int]*walks.Ground

	// memo holds what the epoch remembers between requests (memo.go).
	memo *lruCache

	// file is the index file mapping the arrays alias (nil when they are
	// the dataset's own); see mapping.go.
	file *mapping
}

// walkArtifact is a persisted walk set together with how it was drawn: an RS
// sketch set (θ sampled starts) or RW's cumulative walk set (λ walks per
// node). Only storeWalks, which files it in one of the index's two lists,
// and DatasetStats' two counts ask which.
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
	fail := func(serr *Error) (*Dataset, *Error) {
		ds.release()
		return nil, serr
	}
	// Sketch sets first, then walk sets: the file's order, which names the
	// artifacts in memo keys.
	for _, a := range slices.Concat(idx.Sketches, idx.Walks) {
		i := len(ds.walks)
		set := a.Live
		if set == nil {
			var err error
			if set, err = walks.FromSnapshot(idx.Sys.Candidate(a.Target).G, a.Set); err != nil {
				return fail(badRequestf("walk artifact %d: %v", i, err))
			}
		}
		want := a.Theta
		if want == 0 {
			want = a.Lambda * idx.Sys.N()
		}
		if set.NumWalks() != want {
			return fail(badRequestf("walk artifact %d stores %d walks, want %d (theta=%d, lambda=%d)", i, set.NumWalks(), want, a.Theta, a.Lambda))
		}
		// Index once at load time: every per-query Clone shares the postings
		// index, so indexed queries ride the incremental greedy path without
		// paying a per-query index build. A v3 file carries the index; adopt
		// it (verified against storage) instead of rebuilding. A stored index
		// that passed its checksums but disagrees with its walks was written
		// wrong: say so and count it, then rebuild it.
		if a.Index != nil {
			if err := set.AdoptIndex(a.Index); err != nil {
				s.indexRebuilds.Inc()
				s.tel.logger.Warn("stored postings index rejected, rebuilding it", "dataset", name, "artifact", i, "error", err)
			}
		}
		set.EnsureIndex(s.cfg.Parallelism)
		ds.walks = append(ds.walks, &walkArtifact{key: "w" + strconv.Itoa(i), draw: a.Draw, target: a.Target, horizon: a.Horizon, set: set})
	}
	// Replay the index's update log through the same incremental-repair
	// path live updates use: the restarted daemon lands on exactly the
	// epoch (and bytes) the writer was serving.
	for i, b := range idx.Updates {
		next, serr := s.repairDataset(nil, ds, b, 1, nil)
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
