package service

import (
	"io"
	"sort"
	"strconv"
	"time"

	"ovm/internal/obs"
)

// Metric and label names exposed on /metrics. The request histogram is
// keyed endpoint × dataset × score; the stage histogram covers the
// per-request phases (cache-lookup, singleflight-wait, selection,
// serialize) and the update-pipeline stages (pipeline — the async queue
// wait — apply, repair, persist, checkpoint, swap).
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
	logger    *obs.Logger
}

func newTelemetry(cfg Config) *telemetry {
	return &telemetry{
		reqHist: obs.NewHistogramVec(metricRequestDuration,
			"Request latency by endpoint, dataset, and score.", "endpoint", "dataset", "score"),
		stageHist: obs.NewHistogramVec(metricStageDuration,
			"Per-stage latency of the query path (cache-lookup, singleflight-wait, selection, serialize) and the update pipeline (pipeline, apply, repair, persist, checkpoint, swap).", "stage"),
		lagHist: obs.NewHistogramVec(metricUpdateLag,
			"Accepted-to-visible lag of async update batches (enqueue to epoch swap)."),
		slow:   obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQueryThreshold),
		logger: cfg.Logger,
	}
}

// observe finishes a request span: it records the endpoint histogram, the
// stage histogram for every child stage, offers the span to the
// slow-query log, and emits the structured log line (queries at debug,
// updates at info — updates are rare and operator-relevant).
func (t *telemetry) observe(span *obs.Span, endpoint, dataset, score string, epoch int64, cached bool, errCode string) {
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
	level := obs.LevelDebug
	if endpoint == endpointUpdates {
		level = obs.LevelInfo
	}
	if !t.logger.Enabled(level) {
		return
	}
	fields := []obs.Field{
		obs.F("endpoint", endpoint),
		obs.F("dataset", dataset),
		obs.F("epoch", epoch),
		obs.F("durMs", float64(dur.Nanoseconds())/1e6),
	}
	if score != "" {
		fields = append(fields, obs.F("score", score))
	}
	if endpoint != endpointUpdates {
		fields = append(fields, obs.F("cached", cached))
	}
	if errCode != "" {
		fields = append(fields, obs.F("error", errCode))
		t.logger.Warn("request failed", fields...)
		return
	}
	if endpoint == endpointUpdates {
		t.logger.Info("update applied", fields...)
	} else {
		t.logger.Debug("query", fields...)
	}
}

// WriteMetrics renders the Prometheus text exposition: the lifetime
// counters, cache and uptime gauges, per-dataset epoch / index-footprint
// / update-log-depth gauges, and the request + stage latency histograms.
// Everything is hand-rolled in internal/obs — no client library.
func (s *Service) WriteMetrics(w io.Writer) error {
	st := s.StatsSnapshot()
	e := obs.NewExposition(w)
	e.Gauge("ovmd_uptime_seconds", "Seconds since the service started.", st.UptimeSeconds)
	e.Counter("ovmd_requests_total", "Queries received (all endpoints except updates).", float64(st.Requests))
	e.Counter("ovmd_cache_hits_total", "Queries answered from the LRU response cache.", float64(st.CacheHits))
	e.Counter("ovmd_cache_misses_total", "Queries that missed the response cache.", float64(st.CacheMisses))
	e.Counter("ovmd_cache_evictions_total", "Response-cache entries evicted by the LRU policy.", float64(st.CacheEvictions))
	e.Counter("ovmd_coalesced_total", "Queries that piggybacked on an identical in-flight computation.", float64(st.Coalesced))
	e.Counter("ovmd_computations_total", "Queries actually computed (missed cache, led the singleflight).", float64(st.Computations))
	e.Counter("ovmd_errors_total", "Requests that returned an error.", float64(st.Errors))
	e.Counter("ovmd_updates_total", "Mutation batches applied.", float64(st.Updates))
	e.Counter("ovmd_update_coalesced_ops_total", "Update ops elided by async batch coalescing (merged or dead-write-dropped before repair).", float64(st.CoalescedOps))
	checkpoints := make([]obs.Sample, len(checkpointReasons))
	for i, r := range checkpointReasons {
		checkpoints[i] = obs.Sample{Labels: []obs.Label{{Name: "reason", Value: string(r)}}, Value: float64(s.checkpoints[i].Load())}
	}
	e.CounterVec("ovmd_checkpoints_total", "Index-file checkpoints written (dataset exported, file rewritten atomically, update log pruned behind it), by reason: the update log reached its bound, a walk set's overlay outgrew its share, or a graceful stop.", checkpoints)
	e.Gauge("ovmd_index_mappings_open", "Index file mappings datasets still hold: 1 while serving one file, 2 while a checkpoint is installed or the queries holding an epoch of the previous one finish.", float64(s.mappingsOpen.Load()))
	e.Gauge("ovmd_update_queue_depth", "Accepted-but-unapplied async update batches across datasets.", float64(st.UpdateQueueDepth))
	e.Counter("ovmd_shed_total", "Computations shed by admission control (inflight cap reached, queue full).", float64(st.Shed))
	e.Counter("ovmd_timeouts_total", "Queries that exceeded their deadline (deadline_exceeded responses).", float64(st.Timeouts))
	e.Counter("ovmd_canceled_total", "Queries abandoned by client cancellation.", float64(st.Canceled))
	e.Counter("ovmd_panics_total", "Handler panics recovered into 500 responses.", float64(st.Panics))
	e.Gauge("ovmd_inflight", "Queries currently being served.", float64(st.Inflight))
	e.Gauge("ovmd_cache_entries", "Response-cache entries currently resident.", float64(st.CacheEntries))
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
	datasetGauge("ovmd_dataset_update_queue_depth", "Accepted-but-unapplied async update batches per dataset.",
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
	// Every counter/gauge registered in the obs cost registry (engine,
	// walks, postings, im, serialize, mmapio, dynamic) is appended here,
	// so new library counters are exported without a hand-written line.
	for _, f := range obs.Families() {
		if f.IsGauge {
			e.Gauge(f.Name, f.Help, f.Value)
		} else {
			e.Counter(f.Name, f.Help, f.Value)
		}
	}
	return e.Flush()
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
