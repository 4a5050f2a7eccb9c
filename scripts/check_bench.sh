#!/usr/bin/env bash
# Gate on the recorded bench trajectory: the BENCH_<sha>.json produced by
# bench_record.sh must contain (a) BenchmarkSelection results carrying the
# determinism self-check (P = 1/4/0 agree bit for bit), (b)
# BenchmarkIndexLoad results carrying the index byte-footprint split
# (index_bytes on disk, mapped_bytes zero-copy, heap_bytes resident) and
# the mmap open's load_speedup_x over the heap parse of the same file, and
# (c) the live-daemon serving results (ovmload cold/warm/update-concurrent)
# carrying serving_qps and the p50/p99 latency tail, and (d) the
# cost-accounting evidence: BenchmarkSelection's postings/walk work
# counters, BenchmarkIncrementalUpdate's repair cost counters, and
# BenchmarkCostAccounting's on-vs-off overhead record, and (e)
# BenchmarkSelectSweep's exact count of greedy rounds run. A refactor that
# silently drops a benchmark (or its evidence metrics) fails CI here
# instead of eroding the perf history.
#
#   ./scripts/check_bench.sh BENCH_<sha>.json
set -euo pipefail

f="${1:?usage: check_bench.sh BENCH_<sha>.json}"
if [[ ! -s "$f" ]]; then
  echo "check_bench: $f is missing or empty" >&2
  exit 1
fi
for metric in determinism_ok postings_blocks_decoded walks_truncated; do
  if ! grep -q "BenchmarkSelection.*\"${metric}\"" "$f"; then
    echo "check_bench: $f has no BenchmarkSelection result with the ${metric} metric" >&2
    exit 1
  fi
done
# The exact-evaluation benchmark must have run both ways: scoring against
# memoised competitor rows and re-diffusing every candidate from scratch.
for mode in memo from-scratch; do
  if ! grep -q "BenchmarkEvaluateExact/${mode}.*\"diffusions/op\"" "$f"; then
    echo "check_bench: $f has no BenchmarkEvaluateExact/${mode} result with the diffusions/op metric" >&2
    exit 1
  fi
done
# The select sweep must have run in all three orders, and the greedy rounds
# it computed are an exact count: 5 scores x 50 rounds, each once, whatever
# order the 250 keys arrive in. min-seeds asserts its own count (the doubling
# bracket) inside the benchmark; here it only has to be on record.
for order in ascending descending shuffled; do
  if ! grep -Eq "BenchmarkSelectSweep/${order}.*\"rounds_run/op\":250(\.0+)?[,}]" "$f"; then
    echo "check_bench: $f has no BenchmarkSelectSweep/${order} result with rounds_run/op = 250" >&2
    exit 1
  fi
done
if ! grep -q 'BenchmarkSelectSweep/min-seeds.*"rounds_run/op"' "$f"; then
  echo "check_bench: $f has no BenchmarkSelectSweep/min-seeds result with the rounds_run/op metric" >&2
  exit 1
fi
# The incremental-update benchmark must carry the repair cost counters
# (bytes copied on copy-on-repair, share of walks invalidated) — they are
# the evidence that the cost-accounting layer is still wired through the
# repair path.
for metric in copy_on_repair_bytes invalidated_walk_pct; do
  if ! grep -q "BenchmarkIncrementalUpdate.*\"${metric}\"" "$f"; then
    echo "check_bench: $f has no BenchmarkIncrementalUpdate result with the ${metric} metric" >&2
    exit 1
  fi
done
# The cost-accounting overhead gate: the on-vs-off selection benchmark
# must have run and recorded its overhead percentage (the ≤2% assertion
# itself lives in the benchmark; here we gate on the record existing).
for metric in accounting_overhead_pct on_ns off_ns; do
  if ! grep -q "BenchmarkCostAccounting.*\"${metric}\"" "$f"; then
    echo "check_bench: $f has no BenchmarkCostAccounting result with the ${metric} metric" >&2
    exit 1
  fi
done
# The async-update-pipeline gates: the churn benchmark must have run with
# its evidence metrics, the async path must accept-and-drain at least 2x
# the blocking path's updates/sec, the drain must land byte-identical to
# the sync replay, and the warm query tail during sustained churn must
# stay within 2x of the quiet baseline.
for metric in updates_per_sec_sync updates_per_sec_async churn_speedup_x \
  visible_lag_p50_ns visible_lag_p95_ns churn_warm_p99_ns baseline_warm_p99_ns identical_ok; do
  if ! grep -q "BenchmarkUpdateChurn.*\"${metric}\"" "$f"; then
    echo "check_bench: $f has no BenchmarkUpdateChurn result with the ${metric} metric" >&2
    exit 1
  fi
done
churn_metric() {
  grep '"name":"BenchmarkUpdateChurn"' "$f" | grep -o "\"$1\":[0-9.eE+-]*" | head -1 | cut -d: -f2
}
churn_speedup=$(churn_metric churn_speedup_x)
churn_identical=$(churn_metric identical_ok)
churn_p99=$(churn_metric churn_warm_p99_ns)
churn_base_p99=$(churn_metric baseline_warm_p99_ns)
if ! awk -v s="$churn_speedup" 'BEGIN { exit !(s >= 2) }'; then
  echo "check_bench: async update speedup ${churn_speedup}x is below the 2x gate" >&2
  exit 1
fi
if ! awk -v ok="$churn_identical" 'BEGIN { exit !(ok == 1) }'; then
  echo "check_bench: identical_ok=${churn_identical} — the async drain diverged from the sync replay" >&2
  exit 1
fi
if ! awk -v c="$churn_p99" -v b="$churn_base_p99" 'BEGIN { exit !(c > 0 && b > 0 && c <= 2 * b) }'; then
  echo "check_bench: warm query p99 during churn (${churn_p99}ns) exceeds 2x the quiet baseline (${churn_base_p99}ns)" >&2
  exit 1
fi
for metric in index_bytes mapped_bytes heap_bytes; do
  if ! grep -q "BenchmarkIndexLoad.*\"${metric}\"" "$f"; then
    echo "check_bench: $f has no BenchmarkIndexLoad result with the ${metric} metric" >&2
    exit 1
  fi
done
if ! grep -q 'BenchmarkIndexLoad/v3-mmap.*"load_speedup_x"' "$f"; then
  echo "check_bench: $f has no BenchmarkIndexLoad/v3-mmap result with the load_speedup_x metric" >&2
  exit 1
fi
# The serving-load results (live ovmd driven by ovmload) must carry the
# achieved QPS and the latency tail for all three regimes — a record
# without them means the serving measurement silently stopped running.
for name in ovmload/cold ovmload/warm ovmload/update-concurrent ovmload/warm-degraded ovmload/warm-shed; do
  for metric in serving_qps p50_ns p99_ns; do
    if ! grep -q "\"${name}\".*\"${metric}\"" "$f"; then
      echo "check_bench: $f has no ${name} result with the ${metric} metric" >&2
      exit 1
    fi
  done
done
# The update-concurrent run measures the live daemon's async pipeline:
# update-POST latency is recorded apart from the query mix, and the
# -wait-visible probes must have produced accepted-to-visible lag numbers.
for metric in update_p50_ns visible_lag_p50_ns visible_lag_probes; do
  if ! grep -q '"ovmload/update-concurrent".*"'"${metric}"'"' "$f"; then
    echo "check_bench: $f has no ovmload/update-concurrent result with the ${metric} metric" >&2
    exit 1
  fi
done
# The robustness counters captured from the capped daemon during the shed
# flood must be present, and shedding must actually have happened — a zero
# shed_total means the degraded-mode measurement exercised nothing.
for metric in shed_total timeouts_total canceled_total panics_total; do
  if ! grep -q '"ovmd/robustness-counters".*"'"${metric}"'"' "$f"; then
    echo "check_bench: $f has no ovmd/robustness-counters entry with the ${metric} metric" >&2
    exit 1
  fi
done
shed_total=$(grep '"name":"ovmd/robustness-counters"' "$f" | grep -o '"shed_total":[0-9]*' | head -1 | cut -d: -f2)
if [[ "${shed_total:-0}" -lt 1 ]]; then
  echo "check_bench: shed_total=${shed_total:-0} — the degraded-mode flood induced no load shedding" >&2
  exit 1
fi
# Degraded-mode QPS gate: cache hits bypass admission control and a 429
# rejection does no compute, so the warm mix served during the shed flood
# must stay within 2x of the same mix measured under identical conditions
# (compute slot pinned) with nothing shedding. A collapse here means
# rejections or shed bookkeeping got expensive, or cache hits stopped
# bypassing admission.
qps_of() {
  grep "\"name\":\"$1\"" "$f" | grep -o '"serving_qps":[0-9.eE+-]*' | head -1 | cut -d: -f2
}
degraded_qps=$(qps_of ovmload/warm-degraded)
shed_qps=$(qps_of ovmload/warm-shed)
if [[ -z "$degraded_qps" || -z "$shed_qps" ]]; then
  echo "check_bench: could not parse warm-degraded ($degraded_qps) / warm-shed ($shed_qps) serving_qps" >&2
  exit 1
fi
if ! awk -v w="$degraded_qps" -v s="$shed_qps" 'BEGIN { exit !(2 * s >= w) }'; then
  echo "check_bench: warm-shed QPS $shed_qps fell below half the unshedded warm-degraded baseline $degraded_qps — cache hits are not bypassing load shedding" >&2
  exit 1
fi
echo "check_bench: $f carries BenchmarkSelection determinism_ok + cost counters, BenchmarkSelectSweep rounds_run/op = 250 in three orders, BenchmarkIncrementalUpdate repair cost counters, BenchmarkCostAccounting overhead, BenchmarkUpdateChurn async-pipeline gates (speedup ${churn_speedup}x, identical_ok=${churn_identical}, churn/baseline p99 ${churn_p99}/${churn_base_p99}ns), BenchmarkIndexLoad index/mapped/heap bytes + load_speedup_x, ovmload cold/warm/update-concurrent/warm-degraded/warm-shed serving_qps + latency percentiles, and the shed-flood robustness counters (shed_total=${shed_total}, warm-shed/warm-degraded QPS = ${shed_qps}/${degraded_qps})"
