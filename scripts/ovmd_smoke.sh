#!/usr/bin/env bash
# End-to-end smoke test for the ovmd daemon, run by CI:
#   1. synthesize a tiny dataset and persist it as a .system file;
#   2. ovmd -build-index precomputes the serving artifacts;
#   3. the daemon starts from the index (load, not recompute) with the
#      default zero-copy mmap path;
#   4. /healthz answers, a select-seeds query over HTTP returns exactly the
#      seeds the direct CLI (ovm -theta) computes, and a repeat of the same
#      query is served from the cache; an index-served RW cumulative answer
#      and an RS borda answer equal the direct CLI's too (both methods run
#      the one greedy over their artifact, and the daemon and the CLI parse
#      a score name with the same function); IC and LT, which no artifact
#      serves, answer the direct CLI's seeds with "fromIndex":false;
#   5. the daemon's load line reports the index served zero-copy (the
#      mapped/heap equivalence contract itself is proven in Go:
#      internal/service TestMappedMatchesHeapAcrossScores);
#   5b. a daemon serving a sparse graph (every out-degree <= 3) answers an
#      explain:true select-seeds on a warm epoch memo with one diffusion
#      whose edge steps are below horizon x m (the frontier evaluation; the
#      n=300 yelp-like graph above saturates and runs dense), and its
#      exactValue prints as the direct CLI's from-scratch dense value; that
#      daemon runs with -cache -1, and the same request again is computed,
#      not cached, yet reuses the epoch's value for that (artifact, score,
#      k): same exactValue, no diffusion in its cost block, one value hit
#      on /metrics; three update batches on that daemon then leave /stats
#      mappedBytes exactly where it was (a repair writes a heap overlay
#      beside the mapped base) while heapBytes grows; a fourth batch
#      brings its log to -compact-log 4, and the checkpoint it writes
#      becomes the base: heapBytes falls, one mapping stays open;
#   6. a dynamic-update batch POSTed to /v1/datasets/default/updates bumps
#      the epoch, the post-update HTTP seeds equal a fresh CLI run on the
#      mutated graph (ovm -updates), and the batch cost one WAL line: the
#      index file's size and mtime are unchanged and <index>.wal holds
#      exactly one entry;
#   7. an "explain": true select-seeds query returns the stage spans plus
#      the engine cost snapshot without changing the answer, and its
#      per-round walks-truncated / postings-blocks counts reconcile
#      exactly with the /metrics cost-counter deltas around the query;
#   8. the observability surface answers: /metrics parses as Prometheus
#      text and carries the request histogram, the post-update epoch and
#      update-log-depth gauges, and the engine cost counters moved by the
#      update batch; /debug/timeseries has a non-empty window (the
#      background sampler is on by default); /debug/slow-queries returns
#      entries; and -pprof mounts net/http/pprof;
#   9. failure modes: a third daemon capped at -max-inflight 1 -max-queue 0
#      sheds a concurrent burst of distinct compute queries with 429 +
#      Retry-After while a cache-servable query keeps answering 200; an
#      injected handler panic (-debug-faults) becomes a 500 plus an
#      ovmd_panics_total increment and the daemon keeps serving;
#  10. SIGTERM drains the daemon gracefully (exit code 0) and checkpoints:
#      the WAL is gone, and a restart replays nothing (replayed=0) yet
#      answers at the same epoch with the same seeds.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
port=18472
base="http://127.0.0.1:${port}"

cleanup() {
  [[ -n "${daemon_pid:-}" ]] && kill "$daemon_pid" 2>/dev/null || true
  [[ -n "${shed_pid:-}" ]] && kill "$shed_pid" 2>/dev/null || true
  [[ -n "${sparse_pid:-}" ]] && kill "$sparse_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir/ovm" ./cmd/ovm
go build -o "$workdir/ovmgen" ./cmd/ovmgen
go build -o "$workdir/ovmd" ./cmd/ovmd

echo "== synthesizing dataset + building index"
"$workdir/ovmgen" -dataset yelp-like -n 300 -seed 7 -out "$workdir/smoke" -system
"$workdir/ovmd" -build-index -load "$workdir/smoke.system" -out "$workdir/smoke.ovmidx" \
  -theta 2048 -t 10 -target 0 -seed 7

echo "== computing expected seeds with the direct CLI"
direct_out=$("$workdir/ovm" -load "$workdir/smoke.system" -method RS -score plurality \
  -k 5 -t 10 -target 0 -seed 7 -theta 2048)
expected=$(sed -n 's/^seeds ([0-9]* total): \[\([0-9 ]*\)\].*/\1/p' <<<"$direct_out")
[[ -n "$expected" ]] || { echo "FAIL: could not parse direct CLI seeds"; exit 1; }
echo "   expected seeds: $expected"

echo "== starting daemon"
"$workdir/ovmd" -listen "127.0.0.1:${port}" -index "$workdir/smoke.ovmidx" -pprof \
  >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

for _ in $(seq 1 50); do
  if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -sf "$base/healthz" | grep -q ok || { echo "FAIL: /healthz"; cat "$workdir/daemon.log"; exit 1; }
echo "   /healthz ok"

request='{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":5,"horizon":10,"target":0,"seed":7,"theta":2048}'
resp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
echo "   response: $resp"
got=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$resp" | tr ',' ' ')
[[ "$got" == "$expected" ]] || { echo "FAIL: daemon seeds ($got) != direct CLI seeds ($expected)"; exit 1; }
grep -q '"fromIndex":true' <<<"$resp" || { echo "FAIL: query did not use the loaded index"; exit 1; }
echo "   seeds match the direct CLI and came from the index"

resp2=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
grep -q '"cached":true' <<<"$resp2" || { echo "FAIL: repeat query was not cached"; exit 1; }
echo "   repeat query served from cache"

echo "== the other walk method and the sixth score against the direct CLI"
for pair in "RW cumulative" "RS borda"; do
  read -r m sc <<<"$pair"
  cli_out=$("$workdir/ovm" -load "$workdir/smoke.system" -method "$m" -score "$sc" \
    -k 5 -t 10 -target 0 -seed 7 -theta 2048)
  want=$(sed -n 's/^seeds ([0-9]* total): \[\([0-9 ]*\)\].*/\1/p' <<<"$cli_out")
  [[ -n "$want" ]] || { echo "FAIL: could not parse direct CLI seeds for $m $sc"; echo "$cli_out"; exit 1; }
  body='{"dataset":"default","method":"'$m'","score":{"name":"'$sc'"},"k":5,"horizon":10,"target":0,"seed":7,"theta":2048}'
  xresp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$body")
  xgot=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$xresp" | tr ',' ' ')
  [[ "$xgot" == "$want" ]] || { echo "FAIL: daemon $m $sc seeds ($xgot) != direct CLI seeds ($want)"; exit 1; }
  grep -q '"fromIndex":true' <<<"$xresp" || { echo "FAIL: $m $sc did not use the loaded index: $xresp"; exit 1; }
  echo "   $m $sc: seeds $xgot match the direct CLI and came from the index"
done

echo "== IC and LT, which no artifact serves, against the direct CLI"
for m in IC LT; do
  cli_out=$("$workdir/ovm" -load "$workdir/smoke.system" -method "$m" -score plurality \
    -k 5 -t 10 -target 0 -seed 7)
  want=$(sed -n 's/^seeds ([0-9]* total): \[\([0-9 ]*\)\].*/\1/p' <<<"$cli_out")
  [[ -n "$want" ]] || { echo "FAIL: could not parse direct CLI seeds for $m"; echo "$cli_out"; exit 1; }
  body='{"dataset":"default","method":"'$m'","score":{"name":"plurality"},"k":5,"horizon":10,"target":0,"seed":7}'
  xresp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$body")
  xgot=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$xresp" | tr ',' ' ')
  [[ "$xgot" == "$want" ]] || { echo "FAIL: daemon $m seeds ($xgot) != direct CLI seeds ($want)"; exit 1; }
  grep -q '"fromIndex":false' <<<"$xresp" || { echo "FAIL: $m claims an index served it: $xresp"; exit 1; }
  echo "   $m plurality: seeds $xgot match the direct CLI, computed without an index"
done

echo "== zero-copy load"
grep -q "bytes zero-copy" "$workdir/daemon.log" \
  || { echo "FAIL: the daemon did not mmap the index"; cat "$workdir/daemon.log"; exit 1; }
echo "   index served from an mmap'd region"

echo "== frontier evaluation on a sparse graph"
"$workdir/ovmgen" -dataset twitter-distancing-like -n 2000 -seed 7 -out "$workdir/sparse" -system
"$workdir/ovmd" -build-index -load "$workdir/sparse.system" -out "$workdir/sparse.ovmidx" \
  -theta 2048 -t 10 -target 0 -seed 7 -walks=false
sparse_out=$("$workdir/ovm" -load "$workdir/sparse.system" -method RS -score cumulative \
  -k 5 -t 10 -target 0 -seed 7 -theta 2048)
sparse_m=$(sed -n 's/^dataset=.* m=\([0-9]*\) .*/\1/p' <<<"$sparse_out")
sparse_value=$(sed -n 's/^method=RS k=5 exact score=\([0-9.]*\) .*/\1/p' <<<"$sparse_out")
[[ -n "$sparse_m" && -n "$sparse_value" ]] || { echo "FAIL: could not parse the direct CLI run on the sparse graph"; echo "$sparse_out"; exit 1; }
sparse_port=18476
sparse_base="http://127.0.0.1:${sparse_port}"
"$workdir/ovmd" -listen "127.0.0.1:${sparse_port}" -index "$workdir/sparse.ovmidx" -cache -1 -compact-log 4 \
  >"$workdir/daemon_sparse.log" 2>&1 &
sparse_pid=$!
for _ in $(seq 1 50); do
  if curl -sf "$sparse_base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
# The first ask of the epoch builds the (target, horizon) rows and the
# target's seedless trajectory; the probe after it finds them in the memo.
sparse_request='{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":3,"horizon":10,"target":0,"seed":7,"theta":2048}'
curl -sf -X POST "$sparse_base/v1/select-seeds" -H 'Content-Type: application/json' -d "$sparse_request" >/dev/null \
  || { echo "FAIL: warm-up query on the sparse graph"; cat "$workdir/daemon_sparse.log"; exit 1; }
sparse_request='{"dataset":"default","method":"RS","score":{"name":"cumulative"},"k":5,"horizon":10,"target":0,"seed":7,"theta":2048,"explain":true}'
sresp=$(curl -sf -X POST "$sparse_base/v1/select-seeds" -H 'Content-Type: application/json' -d "$sparse_request")
sparse_steps=$(sed -n 's/.*"ovm_opinion_edge_steps_total":\([0-9]*\).*/\1/p' <<<"$sresp")
grep -q '"ovm_opinion_diffusions_total":1[,}]' <<<"$sresp" \
  || { echo "FAIL: the warm-memo query did not run exactly one diffusion"; echo "$sresp"; exit 1; }
[[ -n "$sparse_steps" && "$sparse_steps" -gt 0 && "$sparse_steps" -lt $((10 * sparse_m)) ]] \
  || { echo "FAIL: warm-memo evaluation cost '$sparse_steps' edge steps, want fewer than horizon x m = $((10 * sparse_m))"; echo "$sresp"; exit 1; }
if grep -q '"ovm_opinion_dense_fallbacks_total"' <<<"$sresp"; then
  echo "FAIL: the evaluation fell back to dense steps on a graph of out-degree <= 3"; echo "$sresp"; exit 1
fi
sparse_exact=$(sed -n 's/.*"exactValue":\([0-9.eE+-]*\).*/\1/p' <<<"$sresp")
[[ "$(printf '%.3f' "$sparse_exact")" == "$sparse_value" ]] \
  || { echo "FAIL: daemon exactValue $sparse_exact != direct CLI from-scratch value $sparse_value"; exit 1; }
grep -q '"valueReused"' <<<"$sresp" \
  && { echo "FAIL: the first ask of this (artifact, score, k) claims a reused value"; echo "$sresp"; exit 1; }
# The same request again. With no response cache it is computed, and the
# epoch remembers the value it scored a moment ago: no diffusion at all.
sresp2=$(curl -sf -X POST "$sparse_base/v1/select-seeds" -H 'Content-Type: application/json' -d "$sparse_request")
grep -q '"cached":false' <<<"$sresp2" || { echo "FAIL: -cache -1 daemon served a cached response"; echo "$sresp2"; exit 1; }
grep -q '"valueReused":true' <<<"$sresp2" || { echo "FAIL: the repeat did not reuse the epoch's value"; echo "$sresp2"; exit 1; }
if grep -q '"ovm_opinion_diffusions_total"' <<<"$sresp2"; then
  echo "FAIL: the repeat ran a diffusion for a value the epoch already had"; echo "$sresp2"; exit 1
fi
sparse_exact2=$(sed -n 's/.*"exactValue":\([0-9.eE+-]*\).*/\1/p' <<<"$sresp2")
[[ "$sparse_exact2" == "$sparse_exact" ]] \
  || { echo "FAIL: reused exactValue $sparse_exact2 != first answer $sparse_exact"; exit 1; }
sparse_metrics=$(curl -sf "$sparse_base/metrics")
grep -q '^ovm_greedy_prefix_value_hits_total 1$' <<<"$sparse_metrics" \
  || { echo "FAIL: /metrics value-hit counter is not 1 after one repeat"; grep '^ovm_greedy_prefix_value' <<<"$sparse_metrics"; exit 1; }
# Updates leave the mapping as the sketch set's base: a repair writes only a
# heap overlay, so mappedBytes stays put while heapBytes grows.
stat_field() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p" <<<"$2"; }
sparse_stats=$(curl -sf "$sparse_base/stats")
mapped_before=$(stat_field mappedBytes "$sparse_stats")
heap_before=$(stat_field heapBytes "$sparse_stats")
for nodes in "3 40" "77 150" "901 1500"; do
  read -r a b <<<"$nodes"
  curl -sf -X POST "$sparse_base/v1/datasets/default/updates" -H 'Content-Type: application/json' \
    -d '{"ops":[{"op":"set_stubbornness","candidate":0,"node":'$a',"value":0.3},{"op":"set_stubbornness","candidate":0,"node":'$b',"value":0.6},{"op":"set_opinion","candidate":1,"node":'$a',"value":0.2}]}' >/dev/null \
    || { echo "FAIL: update batch on the sparse daemon"; exit 1; }
done
curl -sf -X POST "$sparse_base/v1/select-seeds" -H 'Content-Type: application/json' \
  -d '{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":3,"horizon":10,"target":0,"seed":7,"theta":2048,"minEpoch":3}' >/dev/null \
  || { echo "FAIL: minEpoch query after the sparse updates"; exit 1; }
sparse_stats=$(curl -sf "$sparse_base/stats")
mapped_after=$(stat_field mappedBytes "$sparse_stats")
heap_after=$(stat_field heapBytes "$sparse_stats")
[[ -n "$mapped_before" && "$mapped_before" -gt 0 && "$mapped_after" == "$mapped_before" ]] \
  || { echo "FAIL: /stats mappedBytes $mapped_before before three update batches, $mapped_after after"; echo "$sparse_stats"; exit 1; }
[[ "$heap_after" -gt "$heap_before" ]] \
  || { echo "FAIL: /stats heapBytes $heap_before -> $heap_after: the updates left no overlay"; echo "$sparse_stats"; exit 1; }
# A fourth batch, opinions only, brings the log to -compact-log 4: the
# daemon checkpoints epoch 3 before swapping it in, then verifies the file
# it wrote in the background and serves it as the new base. The overlays are
# in that file now, and an opinion invalidates no walk, so nothing is left
# on the heap once the install is done.
curl -sf -X POST "$sparse_base/v1/datasets/default/updates" -H 'Content-Type: application/json' \
  -d '{"ops":[{"op":"set_opinion","candidate":0,"node":5,"value":0.4}]}' >/dev/null \
  || { echo "FAIL: fourth update batch on the sparse daemon"; exit 1; }
curl -sf -X POST "$sparse_base/v1/select-seeds" -H 'Content-Type: application/json' \
  -d '{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":3,"horizon":10,"target":0,"seed":7,"theta":2048,"minEpoch":4}' >/dev/null \
  || { echo "FAIL: minEpoch query after the checkpoint"; exit 1; }
for _ in $(seq 1 50); do
  sparse_stats=$(curl -sf "$sparse_base/stats")
  heap_ckpt=$(stat_field heapBytes "$sparse_stats")
  [[ -n "$heap_ckpt" && "$heap_ckpt" -lt "$heap_after" ]] && break
  sleep 0.1
done
[[ -n "$heap_ckpt" && "$heap_ckpt" -lt "$heap_after" ]] \
  || { echo "FAIL: /stats heapBytes $heap_after -> $heap_ckpt across a checkpoint: the file did not become the base"; echo "$sparse_stats"; exit 1; }
sparse_metrics=$(curl -sf "$sparse_base/metrics")
grep -q '^ovmd_checkpoints_total{reason="log"} 1$' <<<"$sparse_metrics" \
  || { echo "FAIL: /metrics does not count one log checkpoint"; grep '^ovmd_checkpoints_total' <<<"$sparse_metrics"; exit 1; }
grep -q '^ovmd_index_mappings_open 1$' <<<"$sparse_metrics" \
  || { echo "FAIL: the previous mapping is still open after the checkpoint"; grep '^ovmd_index_mappings_open' <<<"$sparse_metrics"; exit 1; }
kill -TERM "$sparse_pid"
wait "$sparse_pid" || true
sparse_pid=""
echo "   one diffusion, $sparse_steps edge steps < horizon x m = $((10 * sparse_m)), exactValue $sparse_exact = CLI $sparse_value"
echo "   repeat with -cache -1: computed, value reused, no diffusion, exactValue $sparse_exact2"
echo "   three update batches: mappedBytes stayed $mapped_after, heapBytes $heap_before -> $heap_after (the overlay)"
echo "   a log checkpoint became the base: heapBytes $heap_after -> $heap_ckpt, one mapping open"

curl -sf "$base/stats" | grep -q '"cacheHits":1' || { echo "FAIL: /stats cache hit count"; exit 1; }
echo "   /stats ok"

echo "== applying a dynamic-update batch"
index_before=$(stat -c '%s %y' "$workdir/smoke.ovmidx")
ops='[{"op":"add_edge","from":1,"to":2,"w":1},{"op":"add_edge","from":299,"to":5,"w":0.5},{"op":"set_weight","from":10,"to":11,"w":2},{"op":"set_opinion","candidate":0,"node":7,"value":0.9},{"op":"set_stubbornness","candidate":0,"node":8,"value":0.2}]'
printf '%s\n' "$ops" >"$workdir/updates.jsonl"
upd=$(curl -sf -X POST "$base/v1/datasets/default/updates" -H 'Content-Type: application/json' \
  -d "{\"ops\":$ops}")
echo "   update response: $upd"
grep -q '"epoch":1' <<<"$upd" || { echo "FAIL: update did not promise epoch 1"; exit 1; }
# The daemon runs the async pipeline by default: the POST returns at accept
# time (durably queued, target epoch promised), and the background applier
# makes epoch 1 visible.
grep -q '"accepted":true' <<<"$upd" || { echo "FAIL: async update response is not marked accepted"; exit 1; }
echo "   update accepted asynchronously with promised epoch 1"

echo "== computing expected post-update seeds with the CLI on the mutated graph"
mut_out=$("$workdir/ovm" -load "$workdir/smoke.system" -updates "$workdir/updates.jsonl" \
  -method RS -score plurality -k 5 -t 10 -target 0 -seed 7 -theta 2048)
mut_expected=$(sed -n 's/^seeds ([0-9]* total): \[\([0-9 ]*\)\].*/\1/p' <<<"$mut_out")
[[ -n "$mut_expected" ]] || { echo "FAIL: could not parse mutated-CLI seeds"; exit 1; }
echo "   expected post-update seeds: $mut_expected"

# Read-your-writes: the query carries the promised epoch as minEpoch, so
# the daemon holds it until the background repair swaps epoch 1 in — no
# sleep/poll needed, and the answer is guaranteed post-update.
rw_request='{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":5,"horizon":10,"target":0,"seed":7,"theta":2048,"minEpoch":1}'
resp3=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$rw_request")
got3=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$resp3" | tr ',' ' ')
[[ "$got3" == "$mut_expected" ]] || { echo "FAIL: post-update daemon seeds ($got3) != mutated-CLI seeds ($mut_expected)"; exit 1; }
grep -q '"epoch":1' <<<"$resp3" || { echo "FAIL: post-update response epoch"; exit 1; }
grep -q '"cached":false' <<<"$resp3" || { echo "FAIL: post-update query served stale cache entry"; exit 1; }
grep -q '"fromIndex":true' <<<"$resp3" || { echo "FAIL: post-update query did not use the repaired index"; exit 1; }
echo "   minEpoch=1 query waited for the async repair; seeds match a fresh CLI run on the mutated graph"

# The WAL is the update log and the index file a checkpoint: one visible
# batch is one fsync'd WAL line and no write to the index file at all.
index_after=$(stat -c '%s %y' "$workdir/smoke.ovmidx")
[[ "$index_before" == "$index_after" ]] \
  || { echo "FAIL: the update rewrote the index file (size/mtime '$index_before' -> '$index_after')"; exit 1; }
wal_lines=$(wc -l <"$workdir/smoke.ovmidx.wal")
[[ "$wal_lines" == "1" ]] \
  || { echo "FAIL: <index>.wal holds $wal_lines lines after one update, want 1"; exit 1; }
echo "   index file untouched (size and mtime), <index>.wal holds the one batch"

echo "== query EXPLAIN (live reconciliation against /metrics)"
# A fresh (uncached) explain:true query must carry stage spans and a
# non-empty cost snapshot, and — with the daemon otherwise idle — its
# per-round work counters must reconcile exactly with the /metrics
# cost-counter deltas around the query. k=8 extends the 5-seed greedy prefix
# the minEpoch query above left on epoch 1: the explain block lists all 8
# rounds, says the first 5 were reused, and adds a replay line for
# re-applying them, so  sum(rounds[roundsReused:]) + replay == delta.
explain_request='{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":8,"horizon":10,"target":0,"seed":7,"theta":2048,"explain":true}'
walks_before=$(curl -sf "$base/metrics" | sed -n 's/^ovm_walks_truncated_total //p')
blocks_before=$(curl -sf "$base/metrics" | sed -n 's/^ovm_postings_blocks_total //p')
eresp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$explain_request")
walks_after=$(curl -sf "$base/metrics" | sed -n 's/^ovm_walks_truncated_total //p')
blocks_after=$(curl -sf "$base/metrics" | sed -n 's/^ovm_postings_blocks_total //p')
grep -q '"cached":false' <<<"$eresp" || { echo "FAIL: explain probe was unexpectedly cached"; echo "$eresp"; exit 1; }
grep -q '"explain":{' <<<"$eresp" || { echo "FAIL: explain:true response has no explain block"; echo "$eresp"; exit 1; }
grep -q '"span":{"name":"select-seeds"' <<<"$eresp" || { echo "FAIL: explain block has no select-seeds span"; echo "$eresp"; exit 1; }
grep -q '"cost":{' <<<"$eresp" || { echo "FAIL: explain block has no cost snapshot"; echo "$eresp"; exit 1; }
# The same query without explain must answer with identical seeds —
# explaining a query never changes the answer.
plain_request=${explain_request/,\"explain\":true/}
presp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$plain_request")
eseeds=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$eresp")
pseeds=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$presp")
[[ -n "$eseeds" && "$eseeds" == "$pseeds" ]] \
  || { echo "FAIL: explain:true seeds ($eseeds) != plain seeds ($pseeds)"; exit 1; }
reused=$(sed -n 's/.*"roundsReused":\([0-9]*\).*/\1/p' <<<"$eresp")
[[ "$reused" == 5 ]] || { echo "FAIL: explain probe reused '$reused' greedy rounds, want the 5 the k=5 query ran"; echo "$eresp"; exit 1; }
# In field order the values are the 8 rounds, then the replay line.
rounds_walks=$(grep -o '"walksTruncated":[0-9]*' <<<"$eresp" | cut -d: -f2 | awk -v skip="$reused" 'NR>skip {s+=$1} END{print s+0}')
rounds_blocks=$(grep -o '"postingsBlocks":[0-9]*' <<<"$eresp" | cut -d: -f2 | awk -v skip="$reused" 'NR>skip {s+=$1} END{print s+0}')
d_walks=$(awk -v a="$walks_after" -v b="$walks_before" 'BEGIN{printf "%.0f", a-b}')
d_blocks=$(awk -v a="$blocks_after" -v b="$blocks_before" 'BEGIN{printf "%.0f", a-b}')
[[ "$rounds_walks" == "$d_walks" && "$rounds_walks" != 0 ]] \
  || { echo "FAIL: explain rounds sum $rounds_walks walks truncated, /metrics delta is $d_walks"; exit 1; }
[[ "$rounds_blocks" == "$d_blocks" ]] \
  || { echo "FAIL: explain rounds sum $rounds_blocks postings blocks, /metrics delta is $d_blocks"; exit 1; }
echo "   explain block present, answer unchanged, rounds run + replay reconcile with /metrics deltas (reused=$reused walks=$d_walks blocks=$d_blocks)"

echo "== observability endpoints"
metrics=$(curl -sf "$base/metrics")
bad=$(grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-?[0-9.eE+-]+))$' <<<"$metrics" || true)
[[ -z "$bad" ]] || { echo "FAIL: unparseable /metrics lines:"; echo "$bad"; exit 1; }
grep -q '^ovmd_request_duration_seconds_bucket{' <<<"$metrics" \
  || { echo "FAIL: /metrics has no request-duration histogram"; exit 1; }
grep -q '^ovmd_dataset_epoch{dataset="default"} 1$' <<<"$metrics" \
  || { echo "FAIL: /metrics epoch gauge did not reach 1 after the update"; exit 1; }
grep -q '^ovmd_dataset_update_log_depth{dataset="default"} 1$' <<<"$metrics" \
  || { echo "FAIL: /metrics update-log-depth gauge did not reach 1"; exit 1; }
grep -q '^ovmd_checkpoints_total{reason="log"} 0$' <<<"$metrics" \
  || { echo "FAIL: /metrics checkpoint counter missing, or one update checkpointed the index"; exit 1; }
grep -q '^ovmd_stage_duration_seconds_count{stage="repair"}' <<<"$metrics" \
  || { echo "FAIL: /metrics has no update-pipeline stage histogram"; exit 1; }
# The async-pipeline families: the drained queue gauges sit at zero, the
# pipeline stage span was recorded for the applied batch, and the
# accepted-to-visible lag histogram observed it.
grep -q '^ovmd_update_queue_depth 0$' <<<"$metrics" \
  || { echo "FAIL: /metrics update queue depth is not zero after the drain"; exit 1; }
grep -q '^ovmd_dataset_update_queue_depth{dataset="default"} 0$' <<<"$metrics" \
  || { echo "FAIL: /metrics per-dataset update queue depth missing or non-zero"; exit 1; }
grep -q '^ovmd_update_coalesced_ops_total ' <<<"$metrics" \
  || { echo "FAIL: /metrics has no coalesced-ops counter"; exit 1; }
grep -q '^ovmd_stage_duration_seconds_count{stage="pipeline"} [1-9]' <<<"$metrics" \
  || { echo "FAIL: /metrics pipeline stage span did not record the async batch"; exit 1; }
grep -q '^ovmd_update_visible_lag_seconds_count [1-9]' <<<"$metrics" \
  || { echo "FAIL: /metrics visible-lag histogram did not observe the async batch"; exit 1; }
# The engine cost counters must be exposed, and the ones the update batch
# and the queries drive must have moved off zero.
grep -q '^ovm_dynamic_batches_applied_total [1-9]' <<<"$metrics" \
  || { echo "FAIL: /metrics ovm_dynamic_batches_applied_total did not count the update batch"; exit 1; }
grep -q '^ovm_walks_truncated_total [1-9]' <<<"$metrics" \
  || { echo "FAIL: /metrics ovm_walks_truncated_total is zero after serving queries"; exit 1; }
for counter in ovm_repair_copy_bytes_total ovm_repair_invalidated_walk_pct ovm_postings_blocks_total ovm_rr_sets_scanned_total; do
  grep -q "^${counter} " <<<"$metrics" \
    || { echo "FAIL: /metrics is missing the ${counter} cost counter"; exit 1; }
done
echo "   /metrics parses and carries the histograms, post-update gauges, and cost counters"
tsout=$(curl -sf "$base/debug/timeseries?window=10m")
grep -q '"at":' <<<"$tsout" \
  || { echo "FAIL: /debug/timeseries window is empty (default sampler not running?)"; echo "$tsout"; exit 1; }
grep -q 'ovm_walks_truncated_total' <<<"$tsout" \
  || { echo "FAIL: /debug/timeseries samples lack the registry cost counters"; echo "$tsout"; exit 1; }
echo "   /debug/timeseries serves a non-empty window with cost counters"
slowq=$(curl -sf "$base/debug/slow-queries")
grep -q '"endpoint":"select-seeds"' <<<"$slowq" \
  || { echo "FAIL: /debug/slow-queries has no select-seeds entry"; exit 1; }
echo "   /debug/slow-queries retains spans"
curl -sf "$base/debug/pprof/cmdline" >/dev/null \
  || { echo "FAIL: -pprof did not mount /debug/pprof/"; exit 1; }
echo "   -pprof mounted"

echo "== failure modes: load shedding + panic recovery (capped daemon)"
shed_port=18475
shed_base="http://127.0.0.1:${shed_port}"
"$workdir/ovmd" -listen "127.0.0.1:${shed_port}" -index "$workdir/smoke.ovmidx" \
  -max-inflight 1 -max-queue 0 -debug-faults >"$workdir/daemon_shed.log" 2>&1 &
shed_pid=$!
for _ in $(seq 1 50); do
  if curl -sf "$shed_base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -sf "$shed_base/healthz" | grep -q ok \
  || { echo "FAIL: capped daemon /healthz"; cat "$workdir/daemon_shed.log"; exit 1; }
# Warm one entry while the daemon is idle so a cache-servable query exists.
curl -sf -X POST "$shed_base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request" >/dev/null \
  || { echo "FAIL: cache-warming query on capped daemon"; exit 1; }
# Flood with distinct heavy compute queries (random-walk selection at large k
# runs >100ms here): with one slot and no queue, all but one of each
# concurrent wave must be shed with 429 + Retry-After.
flood_pids=()
for i in $(seq 1 12); do
  body='{"dataset":"default","method":"RW","score":{"name":"plurality"},"k":'$((49 + i))',"horizon":10,"target":0,"seed":7}'
  curl -s -D "$workdir/shed_hdr_$i" -o /dev/null -w '%{http_code}' \
    -X POST "$shed_base/v1/select-seeds" -H 'Content-Type: application/json' \
    -d "$body" >"$workdir/shed_code_$i" &
  flood_pids+=($!)
done
# While the flood is in flight, the warmed query must still answer 200 from
# the cache — shedding applies to compute, not to cache hits.
during=$(curl -s -o "$workdir/shed_cached_body" -w '%{http_code}' \
  -X POST "$shed_base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
wait "${flood_pids[@]}"
[[ "$during" == "200" ]] \
  || { echo "FAIL: cached query during shedding returned $during, want 200"; exit 1; }
grep -q '"cached":true' "$workdir/shed_cached_body" \
  || { echo "FAIL: concurrent query during shedding was not served from the cache"; exit 1; }
shed_count=0
for i in $(seq 1 12); do
  if [[ "$(cat "$workdir/shed_code_$i")" == "429" ]]; then
    shed_count=$((shed_count + 1))
    grep -qi '^Retry-After: ' "$workdir/shed_hdr_$i" \
      || { echo "FAIL: 429 response without a Retry-After header"; cat "$workdir/shed_hdr_$i"; exit 1; }
  fi
done
[[ "$shed_count" -ge 1 ]] \
  || { echo "FAIL: flood past the inflight cap produced no 429s"; cat "$workdir"/shed_code_*; exit 1; }
shed_metric=$(curl -sf "$shed_base/metrics" | sed -n 's/^ovmd_shed_total //p')
[[ "${shed_metric:-0}" -ge "$shed_count" ]] \
  || { echo "FAIL: ovmd_shed_total=$shed_metric < observed 429s ($shed_count)"; exit 1; }
echo "   flood shed $shed_count/12 requests with 429 + Retry-After; cached query answered 200 throughout"

panic_code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$shed_base/debug/fault/panic")
[[ "$panic_code" == "500" ]] \
  || { echo "FAIL: injected panic returned $panic_code, want 500"; exit 1; }
# N.B. capture the body before grepping: with pipefail, `curl | grep -q`
# fails spuriously when grep exits at first match and curl takes a SIGPIPE.
panic_metrics=$(curl -sf "$shed_base/metrics")
grep -q '^ovmd_panics_total [1-9]' <<<"$panic_metrics" \
  || { echo "FAIL: ovmd_panics_total did not count the injected panic"; exit 1; }
curl -sf "$shed_base/healthz" | grep -q ok \
  || { echo "FAIL: daemon died after a handler panic"; cat "$workdir/daemon_shed.log"; exit 1; }
after_panic=$(curl -s -o /dev/null -w '%{http_code}' \
  -X POST "$shed_base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
[[ "$after_panic" == "200" ]] \
  || { echo "FAIL: query after panic returned $after_panic, want 200"; exit 1; }
# Shed/timeout/cancel/panic counters are all exposed on /metrics.
shed_metrics=$(curl -sf "$shed_base/metrics")
for counter in ovmd_shed_total ovmd_timeouts_total ovmd_canceled_total ovmd_panics_total; do
  grep -q "^${counter} " <<<"$shed_metrics" \
    || { echo "FAIL: /metrics is missing the ${counter} counter"; exit 1; }
done
kill -TERM "$shed_pid"
wait "$shed_pid" || true
shed_pid=""
echo "   handler panic -> 500, ovmd_panics_total bumped, daemon kept serving"

echo "== graceful shutdown"
kill -TERM "$daemon_pid"
code=0
wait "$daemon_pid" || code=$?
daemon_pid=""
[[ $code -eq 0 ]] || { echo "FAIL: daemon exited with $code"; cat "$workdir/daemon.log"; exit 1; }
grep -q "ovmd stopped" "$workdir/daemon.log" || { echo "FAIL: no clean shutdown log"; cat "$workdir/daemon.log"; exit 1; }
# The graceful stop folded the WAL into a checkpoint of the index file.
[[ ! -e "$workdir/smoke.ovmidx.wal" ]] \
  || { echo "FAIL: <index>.wal survived the graceful stop"; cat "$workdir/daemon.log"; exit 1; }
[[ "$(stat -c '%s %y' "$workdir/smoke.ovmidx")" != "$index_before" ]] \
  || { echo "FAIL: the graceful stop did not checkpoint the index file"; cat "$workdir/daemon.log"; exit 1; }
echo "   graceful stop checkpointed the index and removed the WAL"

echo "== restart from the checkpoint"
"$workdir/ovmd" -listen "127.0.0.1:${port}" -index "$workdir/smoke.ovmidx" \
  >"$workdir/daemon_restart.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do
  if curl -sf "$base/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
grep -q 'loaded index.* replayed=0 epoch=1' "$workdir/daemon_restart.log" \
  || { echo "FAIL: restart did not load the checkpoint at epoch 1 with nothing to replay"; cat "$workdir/daemon_restart.log"; exit 1; }
resp4=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
got4=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$resp4" | tr ',' ' ')
[[ "$got4" == "$mut_expected" ]] || { echo "FAIL: restarted daemon seeds ($got4) != mutated-CLI seeds ($mut_expected)"; exit 1; }
grep -q '"epoch":1' <<<"$resp4" || { echo "FAIL: restarted daemon is not at epoch 1: $resp4"; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=""
echo "   restart replayed nothing and answers at epoch 1 with the post-update seeds"
echo "PASS: ovmd smoke test"
