#!/usr/bin/env bash
# Crash-consistency smoke test for the ovmd persist path, run by CI:
#   1. synthesize a dataset, build an index, and start ovmd with
#      -compact-log 0, so the index file is never checkpointed and the
#      write-ahead log (<index>.wal) retains every batch since the build;
#   2. drive a mutation churn (a background curl loop posting a one-op
#      batch every 20 ms) and kill -9 the daemon mid-churn, several rounds
#      in a row — each kill may land mid-append of a WAL line, or
#      mid-repair with batches queued;
#   3. after every kill the daemon must restart cleanly: the index file
#      parses (never quarantined), the WAL replays (never quarantined; a
#      torn final line is dropped), no rewrite temps are left, and queries
#      answer 200 — the daemon listens only once the replay is done;
#   4. a burst round targets the async accept path specifically: 20
#      single-op batches are POSTed back-to-back (each fsync'd into the
#      write-ahead log before its accepted response) and the daemon is
#      killed immediately — the restart must replay the queued batches
#      from the WAL and land exactly on the last promised epoch;
#   5. after the final round, the persisted batches are dumped with
#      ovmd -dump-updates (the index file's own log section, then the WAL)
#      and replayed through the direct CLI (ovm -updates): the restarted
#      daemon's HTTP seeds must equal the direct library run on the final
#      mutated graph, and the replayed epoch must equal the number of
#      persisted batches.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
port=18476
base="http://127.0.0.1:${port}"
rounds=3
churn_secs=1.2

cleanup() {
  [[ -n "${daemon_pid:-}" ]] && kill -9 "$daemon_pid" 2>/dev/null || true
  [[ -n "${load_pid:-}" ]] && kill "$load_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$workdir/ovm" ./cmd/ovm
go build -o "$workdir/ovmgen" ./cmd/ovmgen
go build -o "$workdir/ovmd" ./cmd/ovmd

echo "== synthesizing dataset + building index"
"$workdir/ovmgen" -dataset yelp-like -n 300 -seed 7 -out "$workdir/chaos" -system
"$workdir/ovmd" -build-index -load "$workdir/chaos.system" -out "$workdir/chaos.ovmidx" \
  -theta 2048 -t 10 -target 0 -seed 7

start_daemon() {
  "$workdir/ovmd" -listen "127.0.0.1:${port}" -index "$workdir/chaos.ovmidx" \
    -compact-log 0 >>"$workdir/daemon.log" 2>&1 &
  daemon_pid=$!
  for _ in $(seq 1 50); do
    if curl -sf "$base/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: daemon did not come up"; tail -20 "$workdir/daemon.log"; exit 1
}

request='{"dataset":"default","method":"RS","score":{"name":"plurality"},"k":5,"horizon":10,"target":0,"seed":7,"theta":2048}'

# assert_healthy: the restarted daemon must actually SERVE the dataset.
# /healthz alone is not enough — a quarantined index starts the daemon
# degraded with no dataset registered.
assert_healthy() {
  local code
  code=$(curl -s -o "$workdir/last_resp" -w '%{http_code}' \
    -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
  [[ "$code" == "200" ]] \
    || { echo "FAIL: select-seeds after restart returned $code"; cat "$workdir/last_resp"; tail -20 "$workdir/daemon.log"; exit 1; }
  [[ ! -e "$workdir/chaos.ovmidx.corrupt" ]] \
    || { echo "FAIL: index was quarantined — a kill tore the index file"; tail -20 "$workdir/daemon.log"; exit 1; }
  local temps
  temps=$(ls "$workdir"/chaos.ovmidx.tmp-* 2>/dev/null || true)
  [[ -z "$temps" ]] \
    || { echo "FAIL: stale rewrite temps survived the restart sweep: $temps"; exit 1; }
  # A torn final WAL line is dropped silently by design (the kill can land
  # mid-append); anything that QUARANTINES the WAL means mid-file
  # corruption, which fsync-per-append must prevent.
  [[ ! -e "$workdir/chaos.ovmidx.wal.corrupt" ]] \
    || { echo "FAIL: write-ahead log was quarantined after a kill"; tail -20 "$workdir/daemon.log"; exit 1; }
}

# wait_drained: poll /stats until no update queue holds accepted batches —
# the persisted log / epoch comparisons below need the settled state. (A
# restarted daemon has replayed its WAL before it listens, so after a
# restart this returns at once.)
wait_drained() {
  for _ in $(seq 1 100); do
    if ! curl -sf "$base/stats" | grep -q '"updateQueueDepth":[1-9]'; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: update queue did not drain"; curl -sf "$base/stats"; tail -20 "$workdir/daemon.log"; exit 1
}

# churn: POST a one-op set_opinion batch every 20 ms until killed, cycling
# the node id from a start the round number picks. The daemon dies mid-loop
# by design, so a failed POST is not an error.
churn() {
  local node=$(($1 * 97 % 300))
  while :; do
    curl -s --max-time 1 -o /dev/null -X POST "$base/v1/datasets/default/updates" \
      -H 'Content-Type: application/json' \
      -d "{\"ops\":[{\"op\":\"set_opinion\",\"candidate\":0,\"node\":$node,\"value\":0.$1$((node % 10))}]}" || true
    node=$(((node + 1) % 300))
    sleep 0.02
  done
}

start_daemon
assert_healthy
echo "== kill -9 churn loop ($rounds rounds, ~${churn_secs}s of 20ms mutations each)"
for round in $(seq 1 "$rounds"); do
  churn "$round" &
  load_pid=$!
  sleep "$churn_secs"
  kill -9 "$daemon_pid"
  wait "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
  kill "$load_pid" 2>/dev/null || true
  wait "$load_pid" 2>/dev/null || true
  load_pid=""
  temps_before=$(find "$workdir" -maxdepth 1 -name 'chaos.ovmidx.tmp-*' | wc -l)
  start_daemon
  assert_healthy
  epoch=$(sed -n 's/.*"epoch":\([0-9]*\).*/\1/p' "$workdir/last_resp")
  echo "   round $round: killed mid-churn (stale temps on disk: $temps_before), restarted at epoch $epoch"
done

echo "== burst round: queued-but-unrepaired batches must survive kill -9"
wait_drained
e0=$(curl -sf "$base/stats" | sed -n 's/.*"epoch":\([0-9]*\).*/\1/p' | head -1)
burst=20
for i in $(seq 1 "$burst"); do
  acc=$(curl -sf -X POST "$base/v1/datasets/default/updates" -H 'Content-Type: application/json' \
    -d "{\"ops\":[{\"op\":\"set_opinion\",\"candidate\":0,\"node\":$i,\"value\":0.5}]}")
  grep -q "\"epoch\":$((e0 + i))[,}]" <<<"$acc" \
    || { echo "FAIL: burst update $i promised the wrong epoch: $acc"; exit 1; }
done
# Every accepted response above implies its batch is fsync'd in the WAL;
# kill before the background applier can possibly repair them all.
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
daemon_pid=""
start_daemon
assert_healthy
wait_drained
resp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
burst_epoch=$(sed -n 's/.*"epoch":\([0-9]*\).*/\1/p' <<<"$resp")
[[ "$burst_epoch" == "$((e0 + burst))" ]] \
  || { echo "FAIL: after WAL replay the daemon sits at epoch $burst_epoch, want $((e0 + burst)) (e0=$e0 + $burst accepted batches)"; exit 1; }
echo "   all $burst accepted batches replayed from the WAL: epoch $e0 -> $burst_epoch"

echo "== replaying the persisted update log through the direct CLI"
wait_drained
resp=$(curl -sf -X POST "$base/v1/select-seeds" -H 'Content-Type: application/json' -d "$request")
http_seeds=$(sed -n 's/.*"seeds":\[\([0-9,]*\)\].*/\1/p' <<<"$resp" | tr ',' ' ')
http_epoch=$(sed -n 's/.*"epoch":\([0-9]*\).*/\1/p' <<<"$resp")
[[ -n "$http_seeds" && -n "$http_epoch" ]] \
  || { echo "FAIL: could not parse seeds/epoch from: $resp"; exit 1; }
[[ "$http_epoch" -ge 1 ]] \
  || { echo "FAIL: no update batch survived the churn (epoch $http_epoch) — churn too short?"; exit 1; }

"$workdir/ovmd" -dump-updates -index "$workdir/chaos.ovmidx" >"$workdir/updates.jsonl"
batches=$(wc -l <"$workdir/updates.jsonl")
[[ "$batches" == "$http_epoch" ]] \
  || { echo "FAIL: persisted log has $batches batches but the daemon replayed to epoch $http_epoch"; exit 1; }

direct_out=$("$workdir/ovm" -load "$workdir/chaos.system" -updates "$workdir/updates.jsonl" \
  -method RS -score plurality -k 5 -t 10 -target 0 -seed 7 -theta 2048)
direct_seeds=$(sed -n 's/^seeds ([0-9]* total): \[\([0-9 ]*\)\].*/\1/p' <<<"$direct_out")
[[ -n "$direct_seeds" ]] || { echo "FAIL: could not parse direct CLI seeds"; exit 1; }
[[ "$http_seeds" == "$direct_seeds" ]] \
  || { echo "FAIL: restarted daemon seeds ($http_seeds) != direct replay seeds ($direct_seeds)"; exit 1; }
echo "   epoch $http_epoch, $batches persisted batches, seeds match the direct replay: $http_seeds"

kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
daemon_pid=""
echo "PASS: chaos smoke test ($rounds churn + 1 burst kill -9 rounds, epoch $http_epoch, old-or-new held throughout)"
