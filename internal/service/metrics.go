package service

import (
	"context"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"time"

	"ovm/internal/obs"
)

// Metric and label names exposed on /metrics. The request histogram is
// keyed endpoint × dataset × score; the stage histogram covers the
// per-request phases (cache-lookup, singleflight-wait, selection,
// serialize) and the update-pipeline stages (pipeline — the queue wait —
// apply, repair, persist, checkpoint, swap).
const (
	metricRequestDuration = "ovmd_request_duration_seconds"
	metricStageDuration   = "ovmd_stage_duration_seconds"
	metricUpdateLag       = "ovmd_update_visible_lag_seconds"
)

// The endpoint label vocabulary.
const (
	endpointSelectSeeds = "select-seeds"
	endpointEvaluate    = "evaluate"
	endpointWins        = "wins"
	endpointMinSeeds    = "min-seeds-to-win"
	endpointUpdates     = "updates"
)

// telemetry bundles the service's observability state: latency
// histograms, the stage histogram, the slow-query log, and the optional
// structured logger. Recording is lock-free (obs.Histogram) so it rides
// the query hot path; everything else is pull-only (/metrics, /stats,
// /debug/slow-queries).
type telemetry struct {
	reqHist   *obs.HistogramVec
	stageHist *obs.HistogramVec
	lagHist   *obs.HistogramVec // zero labels: accepted-to-visible update lag
	slow      *obs.SlowLog
	logger    *slog.Logger
}

func newTelemetry(cfg Config) *telemetry {
	return &telemetry{
		reqHist: obs.NewHistogramVec(metricRequestDuration,
			"Request latency by endpoint, dataset, and score.", "endpoint", "dataset", "score"),
		stageHist: obs.NewHistogramVec(metricStageDuration,
			"Per-stage latency of the query path (cache-lookup, singleflight-wait, selection, serialize) and the update pipeline (pipeline, apply, repair, persist, checkpoint, swap).", "stage"),
		lagHist: obs.NewHistogramVec(metricUpdateLag,
			"Accepted-to-visible lag of update batches (enqueue to epoch swap)."),
		slow:   obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQueryThreshold),
		logger: cfg.Logger,
	}
}

// observe finishes a request span: it records the endpoint histogram, the
// stage histogram for every child stage, offers the span to the
// slow-query log, and emits the structured log line (failures at warn,
// applied updates at info, queries at debug).
func (t *telemetry) observe(ctx context.Context, span *obs.Span, endpoint, dataset, score string, epoch int64, cached bool, errCode string) {
	dur := span.End()
	t.reqHist.With(endpoint, dataset, score).Observe(dur)
	for _, stage := range span.Children {
		t.stageHist.With(stage.Name).ObserveNs(stage.DurNs)
	}
	t.slow.Offer(obs.SlowEntry{
		At:    time.Now(),
		DurNs: dur.Nanoseconds(),
		Labels: map[string]string{
			"endpoint": endpoint,
			"dataset":  dataset,
			"score":    score,
			"epoch":    strconv.FormatInt(epoch, 10),
		},
		Span: span,
	})
	level, msg := slog.LevelDebug, "query"
	switch {
	case errCode != "":
		level, msg = slog.LevelWarn, "request failed"
	case endpoint == endpointUpdates:
		level, msg = slog.LevelInfo, "update applied"
	}
	if !t.logger.Enabled(ctx, level) {
		return
	}
	args := []any{"endpoint", endpoint, "dataset", dataset, "epoch", epoch, "durMs", float64(dur.Nanoseconds()) / 1e6}
	if score != "" {
		args = append(args, "score", score)
	}
	if endpoint != endpointUpdates {
		args = append(args, "cached", cached)
	}
	if errCode != "" {
		args = append(args, "error", errCode)
	}
	t.logger.Log(ctx, level, msg, args...)
}

// registerMetrics declares every service counter and gauge, once each, in
// the service's own registry: /metrics, /stats and the time-series ring
// all read these declarations. They stay out of the process-global
// registry, which holds the engine's cost counters: EXPLAIN diffs that one
// around each computation, and it sums every Service in the process.
func (s *Service) registerMetrics() {
	r := &s.reg
	r.NewGaugeFunc("ovmd_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.requests = r.NewCounter("ovmd_requests_total", "Queries received (all endpoints except updates).")
	s.cacheHits = r.NewCounter("ovmd_cache_hits_total", "Queries answered from the LRU response cache.")
	s.cacheMisses = r.NewCounter("ovmd_cache_misses_total", "Queries that missed the response cache.")
	r.NewCounterFunc("ovmd_cache_evictions_total", "Response-cache entries evicted by the LRU policy.", s.cache.Evictions)
	r.NewGaugeFunc("ovmd_cache_entries", "Response-cache entries currently resident.",
		func() float64 { return float64(s.cache.Len()) })
	s.coalesced = r.NewCounter("ovmd_coalesced_total", "Queries that piggybacked on an identical in-flight computation.")
	s.computations = r.NewCounter("ovmd_computations_total", "Queries actually computed (missed cache, led the singleflight).")
	s.errorCount = r.NewCounter("ovmd_errors_total", "Requests that returned an error (queries and rejected update batches), plus queued batches that failed to apply (their epoch consumed as a no-op) and failed persists of applied runs (each retried).")
	s.updates = r.NewCounter("ovmd_updates_total", "Mutation batches applied.")
	s.coalescedOps = r.NewCounter("ovmd_update_coalesced_ops_total", "Update ops elided by batch coalescing (merged or dead-write-dropped before repair).")
	s.checkpoints = make(map[CheckpointReason]*obs.Counter)
	for _, reason := range []CheckpointReason{CheckpointLog, CheckpointOverlay, CheckpointShutdown} {
		s.checkpoints[reason] = r.NewCounter("ovmd_checkpoints_total", "Index-file checkpoints written (dataset exported, file rewritten atomically, update log pruned behind it), by reason: the update log reached its bound, a walk set's overlay outgrew its share, or a graceful stop.",
			obs.Label{Name: "reason", Value: string(reason)})
	}
	s.indexRebuilds = r.NewCounter("ovmd_index_rebuilds_total", "Stored postings indexes a load rejected (they passed their checksums but disagree with their walks) and rebuilt from the walks.")
	s.mappingsOpen = r.NewGauge("ovmd_index_mappings_open", "Index file mappings datasets still hold: 1 while serving one file, 2 while a checkpoint is installed or the queries holding an epoch of the previous one finish.")
	r.NewGaugeFunc("ovmd_update_queue_depth", "Accepted-but-unapplied update batches across datasets.",
		func() float64 { return float64(s.totalQueueDepth()) })
	s.shed = r.NewCounter("ovmd_shed_total", "Computations shed by admission control (inflight cap reached, queue full).")
	s.timeouts = r.NewCounter("ovmd_timeouts_total", "Queries that exceeded their deadline (deadline_exceeded responses).")
	s.canceledReqs = r.NewCounter("ovmd_canceled_total", "Queries abandoned by client cancellation.")
	s.panics = r.NewCounter("ovmd_panics_total", "Handler panics recovered into 500 responses.")
	s.inflight = r.NewGauge("ovmd_inflight", "Queries currently being served.")
	registerMemoryGauges(r)
}

// WriteMetrics renders the Prometheus text exposition: the service's
// registry, per-dataset epoch / index-footprint / update-log-depth gauges,
// the request + stage latency histograms, and the process-global cost
// registry. Everything is hand-rolled in internal/obs — no client library.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.StatsSnapshot()
	e := obs.NewExposition(w)
	e.Registry(&s.reg)
	datasetGauge := func(name, help string, value func(DatasetStats) float64) {
		samples := make([]obs.Sample, 0, len(st.Datasets))
		for _, d := range st.Datasets {
			samples = append(samples, obs.Sample{
				Labels: []obs.Label{{Name: "dataset", Value: d.Name}},
				Value:  value(d),
			})
		}
		e.GaugeVec(name, help, samples)
	}
	datasetGauge("ovmd_dataset_epoch", "Current epoch (applied update batches since the base index) per dataset.",
		func(d DatasetStats) float64 { return float64(d.Epoch) })
	datasetGauge("ovmd_dataset_update_log_depth", "Batches a restart replays: WAL entries since the last checkpoint (applied + queued), plus any legacy log inside the index file.",
		func(d DatasetStats) float64 { return float64(d.UpdateLogDepth) })
	datasetGauge("ovmd_dataset_update_queue_depth", "Accepted-but-unapplied update batches per dataset.",
		func(d DatasetStats) float64 { return float64(d.UpdateQueueDepth) })
	datasetGauge("ovmd_dataset_index_bytes", "Artifact footprint per dataset (mapped + heap).",
		func(d DatasetStats) float64 { return float64(d.IndexBytes) })
	datasetGauge("ovmd_dataset_mapped_bytes", "Artifact bytes aliasing a read-only file mapping.",
		func(d DatasetStats) float64 { return float64(d.MappedBytes) })
	datasetGauge("ovmd_dataset_heap_bytes", "Artifact bytes resident on the Go heap.",
		func(d DatasetStats) float64 { return float64(d.HeapBytes) })
	e.HistogramVec(s.tel.reqHist)
	e.HistogramVec(s.tel.stageHist)
	e.HistogramVec(s.tel.lagHist)
	// Every counter/gauge the compute packages registered (engine, walks,
	// postings, im, serialize, mmapio, dynamic) follows, so new library
	// counters are exported without a hand-written line.
	e.Registry(obs.Default())
	return e.Flush()
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
	// UpdateQueueDepth is the total queued-but-unapplied update batches;
	// CoalescedOps counts ops the applier never had to apply because batch
	// merging elided them.
	UpdateQueueDepth int64 `json:"updateQueueDepth"`
	CoalescedOps     int64 `json:"coalescedOps"`
	// Checkpoints counts index-file checkpoints reported through
	// ObserveCheckpoint.
	Checkpoints int64 `json:"checkpoints"`
	// Shed / Timeouts / Canceled / Panics are the failure-mode counters:
	// computations shed by admission control, queries past their deadline,
	// queries abandoned by the client, and handler panics converted to 500s.
	// The first three are included in Errors, which counts every request
	// that returned an error (queries and rejected update batches), plus
	// queued batches that failed to apply (each consumes its epoch as a
	// no-op) and failed persists of applied runs (each is retried).
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
	// dataset's pipeline.
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
	for _, c := range s.checkpoints {
		st.Checkpoints += c.Load()
	}
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

// endpointSummaries folds the request histogram down to per-endpoint
// latency summaries for /stats (merged across datasets and scores — the
// merge is exact, histograms are mergeable by construction).
func (s *Service) endpointSummaries() map[string]EndpointStats {
	merged := s.tel.reqHist.MergedBy(0)
	if len(merged) == 0 {
		return nil
	}
	out := make(map[string]EndpointStats, len(merged))
	for endpoint, snap := range merged {
		out[endpoint] = EndpointStats{
			Count: snap.Count,
			P50Ms: float64(snap.Quantile(0.50)) / 1e6,
			P95Ms: float64(snap.Quantile(0.95)) / 1e6,
			P99Ms: float64(snap.Quantile(0.99)) / 1e6,
			MaxMs: float64(snap.MaxNs) / 1e6,
		}
	}
	return out
}

// SlowQueries returns the retained slow-query entries, slowest first.
func (s *Service) SlowQueries() []obs.SlowEntry {
	return s.tel.slow.Entries()
}

// sortedDatasetNames is shared by StatsSnapshot and WriteMetrics.
func sortedNames(m map[string]*Dataset) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
