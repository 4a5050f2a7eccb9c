#!/usr/bin/env bash
# Record the benchmark trajectory: run the smoke benchmarks plus a live
# ovmd serving-load measurement (ovmload against the 12k-node bench graph)
# and dump the parsed results to BENCH_<sha>.json, one file per commit, so
# the repo's perf history accumulates and regressions are diffable.
#
#   ./scripts/bench_record.sh            # sha from git HEAD
#   ./scripts/bench_record.sh <sha>      # explicit sha (CI passes GITHUB_SHA)
#
# Knobs: BENCH_RE (benchmark regex), BENCHTIME (go -benchtime, default 1x),
# LOAD_DURATION (per ovmload run, default 5s), LOAD_WORKERS (default 8).
set -euo pipefail
cd "$(dirname "$0")/.."

sha="${1:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
out="BENCH_${sha}.json"
bench_re="${BENCH_RE:-BenchmarkTable1RunningExample|BenchmarkParallelScaling|BenchmarkSelection|BenchmarkEvaluateExact|BenchmarkSelectSweep|BenchmarkServiceQuery|BenchmarkIncrementalUpdate|BenchmarkIndexLoad|BenchmarkCostAccounting|BenchmarkUpdateChurn}"
benchtime="${BENCHTIME:-1x}"
load_duration="${LOAD_DURATION:-5s}"
load_workers="${LOAD_WORKERS:-8}"

raw=$(go test -bench "$bench_re" -benchtime "$benchtime" -run '^$' .)
entries=$(awk '
  /^Benchmark/ {
    if (seen) printf ",\n"
    seen = 1
    printf "    {\"name\":\"%s\",\"iterations\":%s,\"metrics\":{", $1, $2
    first = 1
    for (i = 3; i < NF; i += 2) {
      if (!first) printf ","
      first = 0
      printf "\"%s\":%s", $(i+1), $i
    }
    printf "}}"
  }
' <<<"$raw")

# Serving-load measurement: a live daemon on the same 12k-node bench graph
# BenchmarkServiceQuery uses, driven by ovmload in three regimes — cold
# (unique evaluate seed sets, every request computes), warm (fixed query
# mix, cache-served), and update-concurrent (warm mix with a mutation
# stream persisting batches). -verify-metrics cross-checks the daemon's
# /metrics request-histogram delta against the requests ovmload sent.
echo "== serving load (ovmd + ovmload, ${load_duration}/run)" >&2
sdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [[ -n "$daemon_pid" ]] && kill "$daemon_pid" 2>/dev/null || true
  rm -rf "$sdir"
}
trap cleanup EXIT
go build -o "$sdir/ovmd" ./cmd/ovmd
go build -o "$sdir/ovmload" ./cmd/ovmload
"$sdir/ovmd" -build-index -dataset twitter-distancing-like -n 12000 -seed 42 \
  -theta 4096 -t 10 -target 0 -walks=false -out "$sdir/bench.ovmidx" >&2
port=18474
base="http://127.0.0.1:${port}"
"$sdir/ovmd" -listen "127.0.0.1:${port}" -index "$sdir/bench.ovmidx" \
  >"$sdir/ovmd.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  curl -sf "$base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$base/healthz" >/dev/null || { echo "bench_record: ovmd did not come up" >&2; cat "$sdir/ovmd.log" >&2; exit 1; }
load() {
  "$sdir/ovmload" -addr "$base" -duration "$load_duration" -workers "$load_workers" \
    -t 10 -target 0 -seed 42 -verify-metrics -json "$@"
}
cold=$(load -bench-name ovmload/cold -endpoint evaluate -distinct)
warm=$(load -bench-name ovmload/warm -endpoint mix)
upd=$(load -bench-name ovmload/update-concurrent -endpoint mix -mutate-every 500ms -wait-visible)
kill "$daemon_pid" 2>/dev/null || true
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""

# Degraded-mode measurement: the same warm query mix against a daemon capped
# at one compute slot (no queue, engine bounded to one worker) whose slot is
# pinned by a deliberately slow DM computation. Two runs isolate what load
# shedding itself costs: ovmload/warm-degraded is the warm mix with the slot
# pinned but nothing shedding (the "unshedded" baseline under identical CPU
# conditions), ovmload/warm-shed is the same mix while a background cold
# flood hammers the pinned slot and takes 429 + Retry-After on every arrival.
# Cache hits bypass admission control and rejections do no compute, so the
# two QPS figures must stay close — check_bench.sh gates warm-shed at no
# worse than half of warm-degraded, plus shed_total > 0 from the /metrics
# counters captured here. (The uncapped ovmload/warm is not the reference:
# on small CI boxes the pinned compute legitimately timeshares the CPU, and
# that cost is the compute's, not the shedding's.)
echo "== degraded-mode serving load (capped ovmd, pinned slot, shed flood)" >&2
shed_port=18477
shed_base="http://127.0.0.1:${shed_port}"
"$sdir/ovmd" -listen "127.0.0.1:${shed_port}" -index "$sdir/bench.ovmidx" \
  -max-inflight 1 -max-queue 0 -parallel 1 >"$sdir/ovmd_shed.log" 2>&1 &
shed_pid=$!
flood_pid=""
holder_pid=""
cleanup2() {
  [[ -n "$shed_pid" ]] && kill "$shed_pid" 2>/dev/null || true
  [[ -n "$flood_pid" ]] && kill "$flood_pid" 2>/dev/null || true
  [[ -n "$holder_pid" ]] && kill "$holder_pid" 2>/dev/null || true
  cleanup
}
trap cleanup2 EXIT
for _ in $(seq 1 50); do
  curl -sf "$shed_base/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "$shed_base/healthz" >/dev/null || { echo "bench_record: capped ovmd did not come up" >&2; cat "$sdir/ovmd_shed.log" >&2; exit 1; }
# Pre-warm every cache entry of the warm mix with one worker (a single
# closed-loop client never contends, so nothing sheds during the warm-up).
"$sdir/ovmload" -addr "$shed_base" -duration 3s -workers 1 \
  -t 10 -target 0 -seed 42 -endpoint mix >/dev/null
# Pin the compute slot: an uncached DM selection on the 12k graph runs for
# tens of seconds on one engine worker, far past both measurement windows.
curl -s -o "$sdir/dm_holder.out" -X POST "$shed_base/v1/select-seeds" \
  -H 'Content-Type: application/json' \
  -d '{"dataset":"default","method":"DM","score":{"name":"plurality"},"k":5,"horizon":10,"target":0,"seed":42}' &
holder_pid=$!
sleep 1
# Multiple clients share the daemon from here on, so -verify-metrics stays off.
warm_degraded=$("$sdir/ovmload" -addr "$shed_base" -duration "$load_duration" -workers "$load_workers" \
  -t 10 -target 0 -seed 42 -endpoint mix -json -bench-name ovmload/warm-degraded)
# Background flood: every distinct evaluate arrival finds the slot pinned and
# the queue absent, so all of them shed; ovmload retries with backoff and
# counts exhausted retries as errors — expected under sustained overload,
# hence the ignored exit code.
"$sdir/ovmload" -addr "$shed_base" -duration 30s -workers 4 \
  -t 10 -target 0 -seed 99 -endpoint evaluate -distinct \
  >"$sdir/flood.log" 2>&1 &
flood_pid=$!
sleep 0.5
warm_shed=$("$sdir/ovmload" -addr "$shed_base" -duration "$load_duration" -workers "$load_workers" \
  -t 10 -target 0 -seed 42 -endpoint mix -json -bench-name ovmload/warm-shed)
counters=$(curl -sf "$shed_base/metrics" | awk '
  /^ovmd_shed_total /     {shed = $2}
  /^ovmd_timeouts_total / {to = $2}
  /^ovmd_canceled_total / {ca = $2}
  /^ovmd_panics_total /   {pa = $2}
  END {
    printf "{\"name\":\"ovmd/robustness-counters\",\"iterations\":1,\"metrics\":{"
    printf "\"shed_total\":%d,\"timeouts_total\":%d,\"canceled_total\":%d,\"panics_total\":%d}}",
      shed, to, ca, pa
  }')
kill "$flood_pid" "$holder_pid" 2>/dev/null || true
wait "$flood_pid" "$holder_pid" 2>/dev/null || true
flood_pid=""
holder_pid=""
kill "$shed_pid" 2>/dev/null || true
wait "$shed_pid" 2>/dev/null || true
shed_pid=""

{
  printf '{\n'
  printf '  "sha": "%s",\n' "$sha"
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "benchtime": "%s",\n' "$benchtime"
  printf '  "results": [\n'
  printf '%s' "$entries"
  for entry in "$cold" "$warm" "$upd" "$warm_degraded" "$warm_shed" "$counters"; do
    printf ',\n    %s' "$entry"
  done
  printf '\n  ]\n'
  printf '}\n'
} >"$out"

echo "wrote $out:"
cat "$out"
