#!/usr/bin/env bash
# End-to-end smoke of the `repro serve` daemon: health, keep-alive,
# memoization across requests, option validation, cache GC, request
# coalescing, text/SSE response formats, the per-run event feed, and
# graceful drain.
#
# Usage: scripts/daemon_smoke.sh [--cluster] [REPRO_BINARY] [ADDR]
#   --cluster     smoke the sharded fleet instead: a router on ADDR in
#                 front of two workers on the next two ports — routed
#                 runs, peer health, failover-free byte-identity, the
#                 node-labelled aggregated /metrics scrape, and no
#                 /events endpoint
#   REPRO_BINARY  path to the repro binary (default target/release/repro)
#   ADDR          host:port to bind      (default 127.0.0.1:7878)
#
# Scratch files are written to the current directory; run from a
# disposable workspace (CI job dir or a temp dir).
set -euo pipefail

CLUSTER=0
if [ "${1:-}" = "--cluster" ]; then
  CLUSTER=1
  shift
fi
REPRO="${1:-target/release/repro}"
ADDR="${2:-127.0.0.1:7878}"
BASE="http://${ADDR}"

metric() {
  curl -fsS "${BASE}/metrics" | awk -v name="$1" '$1 == name {print $2}'
}

wait_healthy() {
  for _ in $(seq 1 50); do
    if curl -fsS "http://$1/healthz" > /dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "daemon on $1 never became healthy" >&2
  return 1
}

if [ "${CLUSTER}" -eq 1 ]; then
  HOST="${ADDR%:*}"
  PORT="${ADDR##*:}"
  W1="${HOST}:$((PORT + 1))"
  W2="${HOST}:$((PORT + 2))"

  "${REPRO}" serve --addr "${W1}" --cache-dir .ci-cluster-w1 2> worker1.log &
  W1_PID=$!
  "${REPRO}" serve --addr "${W2}" --cache-dir .ci-cluster-w2 2> worker2.log &
  W2_PID=$!
  "${REPRO}" serve --addr "${ADDR}" --role router --peers "${W1},${W2}" \
    --rate-limit 100 2> router.log &
  ROUTER_PID=$!
  trap 'kill "${ROUTER_PID}" "${W1_PID}" "${W2_PID}" 2>/dev/null || true' EXIT

  wait_healthy "${W1}"
  wait_healthy "${W2}"
  wait_healthy "${ADDR}"

  # The router's liveness poller must see both workers.
  for _ in $(seq 1 50); do
    alive=$(curl -fsS "${BASE}/healthz" | grep -o '"peers_alive":[0-9]*' | cut -d: -f2)
    if test "${alive:-0}" -eq 2; then break; fi
    sleep 0.2
  done
  echo "router peers alive: ${alive:-0}"
  test "${alive:-0}" -eq 2

  # Workers answer the peer-health poll directly, too.
  curl -fsS "http://${W1}/peer/health" | grep -q '"role":"worker"'
  curl -fsS "http://${W2}/peer/health" | grep -q '"role":"worker"'

  # Identical routed runs pin to one worker: the second is a memo hit
  # there, and exactly one worker's memo warms up.
  curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > routed1.json
  grep -q '"schema_version":1' routed1.json
  curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > routed2.json
  grep -o '"memo_hits_delta":[0-9]*' routed2.json
  if grep -q '"memo_hits_delta":0,' routed2.json; then
    echo "rerouted identical run missed the warm memo" >&2
    exit 1
  fi
  warm=0
  for worker in "${W1}" "${W2}"; do
    entries=$(curl -fsS "http://${worker}/peer/health" \
      | grep -o '"memo_entries":[0-9]*' | cut -d: -f2)
    echo "worker ${worker} memo entries: ${entries:-0}"
    if test "${entries:-0}" -gt 0; then warm=$((warm + 1)); fi
  done
  test "${warm}" -eq 1

  # A routed text run is byte-identical to batch stdout.
  curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1?format=text" > routed.txt
  "${REPRO}" table1 --quick > batch.txt
  cmp routed.txt batch.txt

  # The aggregated scrape carries every node's samples under `node`
  # labels: the router's own counters plus both workers' serve counters.
  curl -fsS "${BASE}/metrics" > fleet_metrics.txt
  grep -q "horizon_cluster_routed_runs{node=\"${ADDR}\"}" fleet_metrics.txt
  grep -q "node=\"${W1}\"" fleet_metrics.txt
  grep -q "node=\"${W2}\"" fleet_metrics.txt
  grep -q "horizon_serve_requests{node=" fleet_metrics.txt

  # The router tunnels only run streams; there is no event firehose.
  code=$(curl -sS -o /dev/null -w '%{http_code}' "${BASE}/events")
  test "${code}" -eq 404

  # Graceful drain, fleet-wide.
  kill -TERM "${ROUTER_PID}" "${W1_PID}" "${W2_PID}"
  rc=0
  wait "${ROUTER_PID}" || rc=$?
  test "${rc}" -eq 0
  wait "${W1_PID}" || rc=$?
  test "${rc}" -eq 0
  wait "${W2_PID}" || rc=$?
  test "${rc}" -eq 0
  trap - EXIT
  echo "cluster smoke OK"
  exit 0
fi

"${REPRO}" serve --addr "${ADDR}" --cache-dir .ci-cache 2> serve.log &
SERVE_PID=$!
for _ in $(seq 1 50); do
  if curl -fsS "${BASE}/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -fsS "${BASE}/healthz"
echo

# Keep-alive: one curl invocation fetches two URLs over one reused TCP
# connection; the daemon must count the reuse.
curl -fsS "${BASE}/healthz" "${BASE}/experiments" > /dev/null
reuses=$(metric horizon_serve_keepalive_reuses)
echo "keep-alive reuses: ${reuses:-0}"
test "${reuses:-0}" -ge 1

hits_before=$(metric horizon_engine_memo_hits)
hits_before=${hits_before:-0}
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > /dev/null
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > /dev/null
hits_after=$(metric horizon_engine_memo_hits)
echo "memo hits: ${hits_before} -> ${hits_after}"
test "${hits_after}" -gt "${hits_before}"

# Unknown options are rejected loudly; sampling, per-request deadlines
# and window overrides are gone, so their options are among them.
for option in '"sampling":"simpoint"' '"deadline_ms":1' '"instructions":1000' '"warmup":10'; do
  code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
    -d "{\"quick\":true,${option}}" "${BASE}/run/table1")
  test "${code}" -eq 400
done

# /cache/gc reports what it pruned.
curl -fsS -X POST -d '{"max_entries": 1024}' "${BASE}/cache/gc" > gc.json
grep -q '"examined"' gc.json

# Concurrency: parallel identical POSTs must coalesce onto one campaign
# (the fresh seed misses every cache, so the cold run is slow enough for
# the stragglers to ride along), and the structured report must carry
# the schema version.
CURL_PIDS=""
for i in 1 2 3 4; do
  curl -fsS -X POST -d '{"quick":true,"seed":20170601}' "${BASE}/run/table2" > "run_par_${i}.json" &
  CURL_PIDS="${CURL_PIDS} $!"
done
wait ${CURL_PIDS}
grep -q '"schema_version":1' run_par_1.json
coalesced=$(metric horizon_serve_coalesced_runs)
echo "coalesced runs: ${coalesced:-0}"
test "${coalesced:-0}" -ge 1

# ?format=text must be byte-identical to batch stdout.
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1?format=text" > served.txt
"${REPRO}" table1 --quick > batch.txt
cmp served.txt batch.txt

# Streamed run: SSE events with at least one phase event before the
# terminal report, which carries the structured body.
curl -fsSN -X POST -d '{"quick":true}' "${BASE}/run/table1?stream=events" > stream.txt
grep -q '^event: start' stream.txt
grep -q '^event: phase_enter' stream.txt
first_phase=$(grep -n '^event: phase_enter' stream.txt | head -1 | cut -d: -f1)
report_line=$(grep -n '^event: report' stream.txt | cut -d: -f1)
echo "first phase event at line ${first_phase}, report at line ${report_line}"
test "${first_phase}" -lt "${report_line}"
awk '/^event: /{last=$2} END{exit last != "report"}' stream.txt
grep -A1 '^event: report' stream.txt | grep -q '"schema_version":1'
# A run stream carries only the run's feed: no counter frames.
if grep -q '^event: counter' stream.txt; then
  echo "streamed run sent counter frames" >&2
  exit 1
fi
# This table1 run repeats a memoized one, so every job is a memo hit:
# the last progress frame counts them from the jobs' own outcomes and
# agrees with the report's engine deltas.
last_hits=$(grep -A1 '^event: progress' stream.txt | grep -o '"memo_hits":[0-9]*' \
  | tail -1 | cut -d: -f2)
report_hits=$(grep -A1 '^event: report' stream.txt | grep -o '"memo_hits_delta":[0-9]*' \
  | cut -d: -f2)
echo "streamed memo hits: last progress ${last_hits:-none}, report ${report_hits:-none}"
test -n "${last_hits}"
test "${last_hits}" -gt 0
test "${last_hits}" -eq "${report_hits}"

# There is no daemon-wide event firehose.
code=$(curl -sS -o /dev/null -w '%{http_code}' "${BASE}/events")
test "${code}" -eq 404

kill -TERM "${SERVE_PID}"
# Watchdog: SIGKILL if the daemon fails to drain within 30s, which
# forces a non-zero exit code below.
( sleep 30; kill -KILL "${SERVE_PID}" 2>/dev/null ) &
WATCHDOG=$!
rc=0
wait "${SERVE_PID}" || rc=$?
kill "${WATCHDOG}" 2>/dev/null || true
cat serve.log
test "${rc}" -eq 0
