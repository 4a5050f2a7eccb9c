package main

// The per-layer metric table and the part of it that is read from the live
// daemon's /metrics. A layer is a package; the ovmd layer is the daemon's
// own stage histogram. Times are filled in by the traced replay (trace.go).

// unboundedReadings is how many entries at the head of perLayer are
// end-to-end readings rather than layer metrics; -compare lists them.
const unboundedReadings = 11

// perLayer is reported with -trace 1. It starts with the end-to-end
// readings that not every workload supports with enough samples to carry a
// regression bound (see README "Readings without a bound").
var perLayer = []metricDef{
	{"query_p50_ms", "ms", "lower", 0, "median client latency of query requests, bursts of the box included"},
	{"visible_lag_p50_ms", "ms", "lower", 0, "median of accept until visible"},
	{"updates_per_s", "1/s", "higher", 0, "batches per second from the first POST until the last batch is visible; the schedule fixes it near 4 on a paced stream"},
	{"query_qps", "1/s", "higher", 0, "successful queries per second of the reader's elapsed time; 26% spread on churn-mix in a busy spell"},
	{"query_p99_ms", "ms", "lower", 0, "p99 client query latency; needs 1000 samples, so not big-cold"},
	{"update_accept_p50_ms", "ms", "lower", 0, "POST /updates until the promised epoch comes back, from the due time when open loop; 28% spread in a busy spell"},
	{"update_accept_p90_ms", "ms", "lower", 0, "p90 of POST /updates until 202"},
	{"visible_lag_p90_ms", "ms", "lower", 0, "p90 of accept until visible"},
	{"restart_ms", "ms", "lower", 0, "churn-mix: SIGTERM, re-exec, until the probe answers the same bytes at the same epoch"},
	{"cpu_ms_per_op", "ms", "lower", 0, "daemon user+sys CPU over the window per successful request; 39% spread on churn-mix in a busy spell"},
	{"failed_share", "ratio", "lower", 0, "failed or wrong requests over attempted; must be 0"},

	{"service.http_self_us", "us", "lower", 0, "query_qps warm-mix"},
	{"service.select_cold_us", "us", "lower", 0, "query_p50_ms cold-select; query_p99_ms churn-mix"},
	{"service.evaluate_cold_us", "us", "lower", 0, "query_p99_ms churn-mix"},
	{"service.select_hit_us", "us", "lower", 0, "query_qps warm-mix"},
	{"service.self_pct", "%", "lower", 0, "cold select time not covered by the child layer calls"},
	{"service.cache_hit_ratio", "ratio", "higher", 0, "0 on cold-select, about 1 on warm-mix"},
	{"service.cache_evictions", "count", "lower", 0, "query_p50_ms cold-select"},
	{"service.coalesced", "count", "higher", 0, "singleflight followers; 0 with one client"},
	{"service.computations", "count", "lower", 0, "epoch-invalidation cost on churn-mix"},
	{"service.accept_us", "us", "lower", 0, "update_accept_p50_ms churn-mix, update-burst"},
	{"service.repair_total_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix"},
	{"service.build_index_ms", "ms", "lower", 0, "setup_s, most on big-cold"},
	{"service.add_index_ms", "ms", "lower", 0, "setup_s, restart_ms"},
	{"service.replay_ms_per_batch", "ms", "lower", 0, "restart_ms churn-mix"},
	{"service.export_index_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix when the log compacts"},

	{"ovmd.stage_selection_ms", "ms", "lower", 0, "query_p50_ms cold-select, big-cold"},
	{"ovmd.stage_serialize_us", "us", "lower", 0, "query_qps warm-mix"},
	{"ovmd.stage_cache_lookup_us", "us", "lower", 0, "query_qps warm-mix"},
	{"ovmd.stage_singleflight_wait_us", "us", "lower", 0, "query_p99_ms churn-mix"},
	{"ovmd.stage_pipeline_ms", "ms", "lower", 0, "visible_lag_p50_ms update-burst (queue wait)"},
	{"ovmd.stage_apply_ms", "ms", "lower", 0, "visible_lag_p50_ms"},
	{"ovmd.stage_repair_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix"},
	{"ovmd.stage_persist_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix; WAL appends included, per repair"},
	{"ovmd.stage_swap_us", "us", "lower", 0, "visible_lag_p50_ms"},
	{"ovmd.visible_lag_mean_ms", "ms", "lower", 0, "visible_lag_p50_ms, as the daemon sees it"},
	{"ovmd.coalesced_ops", "count", "higher", 0, "updates_per_s update-burst"},
	{"ovmd.batches_per_repair", "ratio", "higher", 0, "updates_per_s update-burst; about 1 on churn-mix"},

	{"core.competitors_ms", "ms", "lower", 0, "query_p99_ms churn-mix (memoised per epoch)"},
	{"core.evaluate_exact_ms", "ms", "lower", 0, "query_p50_ms big-cold (majority), cold-select (minority)"},
	{"opinion.step_ns_per_edge", "ns", "lower", 0, "query_p50_ms big-cold"},
	{"voting.eval_us.cumulative", "us", "lower", 0, "query_p50_ms big-cold"},
	{"voting.eval_us.plurality", "us", "lower", 0, "query_p50_ms big-cold"},
	{"voting.eval_us.p-approval", "us", "lower", 0, "query_p50_ms big-cold"},
	{"voting.eval_us.borda", "us", "lower", 0, "query_p50_ms big-cold"},
	{"voting.eval_us.copeland", "us", "lower", 0, "query_p50_ms big-cold"},

	{"walks.clone_us", "us", "lower", 0, "query_p50_ms cold-select"},
	{"walks.estimator_init_us", "us", "lower", 0, "query_p50_ms cold-select"},
	{"walks.greedy_us_per_round.cumulative", "us", "lower", 0, "query_p50_ms cold-select"},
	{"walks.greedy_us_per_round.plurality", "us", "lower", 0, "query_p50_ms cold-select"},
	{"walks.greedy_us_per_round.p-approval", "us", "lower", 0, "query_p50_ms cold-select"},
	{"walks.greedy_us_per_round.borda", "us", "lower", 0, "query_p50_ms cold-select"},
	{"walks.greedy_us_per_round.copeland", "us", "lower", 0, "query_p50_ms cold-select"},
	{"sketch.select_on_set_ms", "ms", "lower", 0, "query_p50_ms cold-select (majority), big-cold (minority); none on warm-mix"},
	{"walks.truncated_per_query", "count", "lower", 0, "query_p50_ms cold-select"},
	{"walks.gain_cache_hit_ratio", "ratio", "higher", 0, "query_p50_ms cold-select"},
	{"walks.fullscan", "count", "lower", 0, "must be 0: the scan fallback never runs on indexed sets"},
	{"postings.entries_per_query", "count", "lower", 0, "query_p50_ms cold-select"},
	{"postings.blocks_per_query", "count", "lower", 0, "query_p50_ms cold-select"},
	{"postings.iter_ns_per_entry", "ns", "lower", 0, "query_p50_ms cold-select"},
	{"postings.compression_x", "ratio", "higher", 0, "index_mb, rss_peak_mb"},
	{"walks.generate_ns_per_walk", "ns", "lower", 0, "setup_s big-cold"},
	{"sketch.repair_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix, restart_ms"},
	{"rwalk.repair_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix, restart_ms"},
	{"walks.repair_invalidated_pct", "%", "lower", 0, "visible_lag_p50_ms churn-mix"},
	{"walks.repair_copy_bytes", "B", "lower", 0, "visible_lag_p50_ms churn-mix, rss_peak_mb"},
	{"engine.pool_utilization", "ratio", "higher", 0, "query_p50_ms where selection is sharded"},

	{"dynamic.validate_us", "us", "lower", 0, "update_accept_p50_ms"},
	{"dynamic.coalesce_us", "us", "lower", 0, "updates_per_s update-burst; none on churn-mix"},
	{"dynamic.coalesce_ratio", "ratio", "higher", 0, "updates_per_s update-burst (ops elided over ops in)"},
	{"dynamic.apply_system_ms", "ms", "lower", 0, "visible_lag_p50_ms"},
	{"graph.apply_deltas_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix"},

	{"persist.wal_append_us", "us", "lower", 0, "update_accept_p50_ms update-burst"},
	{"persist.wal_prune_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix"},
	{"persist.write_index_atomic_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix; amortised on update-burst"},
	{"serialize.write_v3_ms", "ms", "lower", 0, "visible_lag_p50_ms churn-mix"},
	{"persist.bytes_per_batch", "ratio", "lower", 0, "bytes written to storage per byte of batch JSON"},
	{"serialize.open_mapped_ms", "ms", "lower", 0, "setup_s, restart_ms"},
	{"serialize.index_bytes", "B", "lower", 0, "index_mb, rss_peak_mb"},
	{"serialize.mapped_bytes", "B", "higher", 0, "rss_peak_mb: shrinks as repairs copy to the heap"},
	{"serialize.heap_bytes", "B", "lower", 0, "rss_peak_mb: grows as repairs copy to the heap"},

	{"datasets.synthesize_ms", "ms", "lower", 0, "setup_s"},
	{"loadgen.late_p90_ms", "ms", "lower", 0, "how late the open-loop writer fired; the generator's own health"},
	{"trace.overhead_pct", "%", "lower", 0, "traced against untraced in-process replay of one stream"},
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveCounts fills in what the daemon's exposition gives: query-side
// counts over the window (m0 to m1), write-side counts and stage means over
// window plus tail (m0 to m2), so a read-only workload's paced tail shows
// in them, and the footprint gauges as they stand at the end.
func liveCounts(res *result, m0, m1, m2 metricsSnap) {
	hits := m1.delta(m0, "ovmd_cache_hits_total")
	misses := m1.delta(m0, "ovmd_cache_misses_total")
	comps := m1.delta(m0, "ovmd_computations_total")
	res.set("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	res.set("service.cache_evictions", m1.delta(m0, "ovmd_cache_evictions_total"), "count", 0)
	res.set("service.coalesced", m1.delta(m0, "ovmd_coalesced_total"), "count", 0)
	res.set("service.computations", comps, "count", 0)

	stage := func(name, stage string, scale float64, unit string, from, to metricsSnap) {
		mean, n := to.stageMean(from, stage)
		res.set(name, mean*scale, unit, int(n))
	}
	stage("ovmd.stage_selection_ms", "selection", 1e3, "ms", m0, m1)
	stage("ovmd.stage_serialize_us", "serialize", 1e6, "us", m0, m1)
	stage("ovmd.stage_cache_lookup_us", "cache-lookup", 1e6, "us", m0, m1)
	stage("ovmd.stage_singleflight_wait_us", "singleflight-wait", 1e6, "us", m0, m1)
	stage("ovmd.stage_pipeline_ms", "pipeline", 1e3, "ms", m0, m2)
	stage("ovmd.stage_apply_ms", "apply", 1e3, "ms", m0, m2)
	stage("ovmd.stage_repair_ms", "repair", 1e3, "ms", m0, m2)
	stage("ovmd.stage_swap_us", "swap", 1e6, "us", m0, m2)
	// The daemon files WAL appends and index rewrites under one "persist"
	// stage; per repair is the only divisor that means the same thing on a
	// paced and on a burst stream.
	_, repairs := m2.stageMean(m0, "repair")
	persistSum := m2.delta(m0, `ovmd_stage_duration_seconds_sum{stage="persist"}`)
	res.set("ovmd.stage_persist_ms", ratio(persistSum, repairs)*1e3, "ms", int(repairs))
	lagN := m2.delta(m0, "ovmd_update_visible_lag_seconds_count")
	res.set("ovmd.visible_lag_mean_ms", ratio(m2.delta(m0, "ovmd_update_visible_lag_seconds_sum"), lagN)*1e3, "ms", int(lagN))
	res.set("ovmd.coalesced_ops", m2.delta(m0, "ovmd_update_coalesced_ops_total"), "count", 0)
	res.set("ovmd.batches_per_repair", ratio(m2.delta(m0, "ovmd_updates_total"), repairs), "ratio", int(repairs))

	res.set("walks.truncated_per_query", ratio(m1.delta(m0, "ovm_walks_truncated_total"), comps), "count", int(comps))
	gh := m1.delta(m0, "ovm_walks_gain_cache_hits_total")
	gm := m1.delta(m0, "ovm_walks_gain_cache_misses_total")
	res.set("walks.gain_cache_hit_ratio", ratio(gh, gh+gm), "ratio", int(gh+gm))
	res.set("walks.fullscan", m2.delta(m0, "ovm_walks_fullscan_total"), "count", 0)
	res.set("postings.entries_per_query", ratio(m1.delta(m0, "ovm_postings_entries_total"), comps), "count", int(comps))
	res.set("postings.blocks_per_query", ratio(m1.delta(m0, "ovm_postings_blocks_total"), comps), "count", int(comps))
	seen := m2.delta(m0, "ovm_repair_walks_seen_total")
	res.set("walks.repair_invalidated_pct", 100*ratio(m2.delta(m0, "ovm_repair_walks_invalidated_total"), seen), "%", int(seen))
	res.set("walks.repair_copy_bytes", m2.delta(m0, "ovm_repair_copy_bytes_total"), "B", 0)
	res.set("engine.pool_utilization", ratio(m2.delta(m0, "ovm_engine_busy_ns_total"), m2.delta(m0, "ovm_engine_capacity_ns_total")), "ratio", 0)

	ds := `{dataset="` + servedDataset + `"}`
	res.set("serialize.index_bytes", m2["ovmd_dataset_index_bytes"+ds], "B", 0)
	res.set("serialize.mapped_bytes", m2["ovmd_dataset_mapped_bytes"+ds], "B", 0)
	res.set("serialize.heap_bytes", m2["ovmd_dataset_heap_bytes"+ds], "B", 0)
	if res.Metrics["walks.fullscan"].Value != 0 {
		res.problem("walks.fullscan is %v, want 0", res.Metrics["walks.fullscan"].Value)
	}
}
