#!/usr/bin/env bash
# Chaos soak gate for the elastic sweep service: a seeded fault schedule
# (core/failpoint.h, "xr.fault.schedule.v1") injects every fault kind the
# layer knows across a real coordinator + worker run, and the merged
# output must STILL be byte-identical to the monolithic reference.
#
# Two legs:
#   * chaos leg      — 2 workers + coordinator, each process under its own
#                      schedule covering all 5 fault kinds: io_error
#                      (sink flush, coordinator fold, transport poll),
#                      truncate (torn sink flush), corrupt (silent record
#                      corruption), drop (every 9th worker send swallowed),
#                      delay (a 4 s slice stall that outlives the 2 s lease
#                      timeout -> expiry + reassignment). The summary and
#                      OffloadPlan must match the monolithic run bitwise.
#   * quarantine leg — a shard whose sink flush fails on every attempt the
#                      protocol allows burns max_attempts and is
#                      quarantined (--allow-partial): the coordinator must
#                      emit the "xr.service.partial.v1" document naming it
#                      while the completed shards still merge.
#
# That the -DXR_FAULT_DISABLED=ON stubs perturb nothing is checked by
# scripts/obs_zero_perturbation.sh, whose stub tree sets both stub macros
# and runs the same no-churn service next to the default build.
#
#   usage: scripts/sweep_service_chaos.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build. Work dirs live on /dev/shm when available
# (per-message mailbox files vs synchronous-discard TRIM latency).
set -euo pipefail

BUILD_DIR="${1:-$(dirname "$0")/../build}"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"
SHARDS=4

PLAN="$BUILD_DIR/sweep_plan"
WORKER="$BUILD_DIR/sweep_worker"
COORD="$BUILD_DIR/sweep_coordinator"
for bin in "$PLAN" "$WORKER" "$COORD"; do
  if [[ ! -x "$bin" ]]; then
    echo "sweep_service_chaos.sh: build $(basename "$bin") first (looked in $BUILD_DIR)" >&2
    exit 2
  fi
done

TMP_ROOT="${TMPDIR:-/tmp}"
if [[ -d /dev/shm && -w /dev/shm ]]; then TMP_ROOT=/dev/shm; fi
OUT="$(mktemp -d "$TMP_ROOT/sweep_chaos.XXXXXX")"
worker_pids=()
cleanup() {
  for pid in "${worker_pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$OUT"
}
trap cleanup EXIT
unset XR_FAULT_SCHEDULE  # every leg opts in explicitly, per process.

echo "== the search as one serializable request + monolithic reference =="
"$PLAN" --emit-request --alpha 0.5 > "$OUT/request.json"
"$PLAN" --request "$OUT/request.json" --summary-out "$OUT/mono.summary.json"
"$PLAN" --request "$OUT/request.json" --plan-out "$OUT/mono.plan.json"

# --- leg 1: all five fault kinds, output still bitwise ------------------
echo
echo "== chaos leg: 2 workers, seeded schedule, 5 fault kinds =="
# Worker-side faults: the first flush dies (io_error -> fresh restart),
# the third is torn (truncate -> resume off the torn tail), the fifth is
# silently corrupted (the fold rejects it -> reassignment re-evaluates),
# every 9th outbound message vanishes (drop -> lease expiry re-covers),
# and the 4th slice stalls 4 s past the 2 s lease timeout (delay ->
# revoke + reassign while the straggler is still alive).
cat > "$OUT/worker.faults.json" <<'JSON'
{"schema":"xr.fault.schedule.v1","seed":7,"rules":[
  {"point":"shard.sink.flush","trigger":{"on":"nth","n":1},"action":"io_error"},
  {"point":"shard.sink.flush","trigger":{"on":"nth","n":3},"action":"truncate"},
  {"point":"shard.sink.flush","trigger":{"on":"nth","n":5},"action":"corrupt"},
  {"point":"transport.send","trigger":{"on":"every","n":9},"action":"drop","max_fires":6},
  {"point":"service.worker.slice","trigger":{"on":"nth","n":4},"action":"delay","delay_ms":4000}
]}
JSON
# Coordinator-side faults are transient only (its sends stay reliable so
# shutdown always lands): the first fold read dies inside the bounded
# fold-retry loop, the second mailbox poll dies inside with_retries.
cat > "$OUT/coord.faults.json" <<'JSON'
{"schema":"xr.fault.schedule.v1","seed":7,"rules":[
  {"point":"service.coordinator.fold","trigger":{"on":"nth","n":1},"action":"io_error"},
  {"point":"transport.poll","trigger":{"on":"nth","n":2},"action":"io_error"}
]}
JSON
MAIL="$OUT/svc-chaos"
for w in cw0 cw1; do
  XR_FAULT_SCHEDULE="$OUT/worker.faults.json" \
  "$WORKER" --serve --mail "$MAIL" --name "$w" \
            --slice-records 16 --heartbeat-ms 50 --poll-ms 10 \
            --idle-timeout-ms 120000 >/dev/null &
  worker_pids+=($!)
done
XR_FAULT_SCHEDULE="$OUT/coord.faults.json" \
"$COORD" --request "$OUT/request.json" --mail "$MAIL" \
         --shard-dir "$MAIL/shards" --shards "$SHARDS" \
         --chunk-records 16 --lease-timeout-ms 2000 --poll-ms 20 \
         --out "$OUT/chaos.summary.json" --check "$OUT/mono.summary.json" \
         --plan-out "$OUT/chaos.plan.json" \
         --metrics-out "$OUT/chaos.metrics.json"
for pid in "${worker_pids[@]}"; do wait "$pid"; done
worker_pids=()
if ! cmp "$OUT/mono.plan.json" "$OUT/chaos.plan.json"; then
  echo "sweep_service_chaos.sh: FAIL (plan diverged under fault injection)" >&2
  exit 1
fi
# The schedule actually bit: injected firings are audited as
# fault.<point>.fired counters in the aggregated snapshot (skipped when
# the build has telemetry stubbed out — nothing is recorded there).
if grep -q '"counters":{}' "$OUT/chaos.metrics.json"; then
  echo "   fault audit counters: snapshot empty (obs disabled) — skipped"
else
  grep -q '"fault.service.coordinator.fold.fired":' "$OUT/chaos.metrics.json"
  grep -q '"fault.shard.sink.flush.fired' "$OUT/chaos.metrics.json"
  echo "   fault audit counters present (fold + flush firings recorded)"
fi
# Archive the chaos snapshot where CI collects bench/serving artifacts.
mkdir -p "$BUILD_DIR/bench/out"
cp "$OUT/chaos.metrics.json" "$BUILD_DIR/bench/out/chaos_service.metrics.json"

# --- leg 2: exhausted shard -> quarantine + partial document ------------
echo
echo "== quarantine leg: shard 0 burns max_attempts, sweep degrades gracefully =="
# Every flush dies until the rule exhausts: shard 0's attempt 0 (slice +
# fresh restart) and attempt 1 (slice + fresh restart) = 4 firings, after
# which the remaining shards run clean on the same worker.
cat > "$OUT/poison.faults.json" <<'JSON'
{"schema":"xr.fault.schedule.v1","seed":7,"rules":[
  {"point":"shard.sink.flush","trigger":{"on":"every","n":1},"action":"io_error","max_fires":4}
]}
JSON
MAIL="$OUT/svc-quarantine"
XR_FAULT_SCHEDULE="$OUT/poison.faults.json" \
"$WORKER" --serve --mail "$MAIL" --name qw0 \
          --slice-records 16 --heartbeat-ms 50 --poll-ms 10 \
          --idle-timeout-ms 120000 >/dev/null &
worker_pids+=($!)
"$COORD" --request "$OUT/request.json" --mail "$MAIL" \
         --shard-dir "$MAIL/shards" --shards "$SHARDS" \
         --chunk-records 16 --lease-timeout-ms 5000 --poll-ms 20 \
         --max-attempts 2 --allow-partial \
         --out "$OUT/partial.summary.json" \
         --partial-out "$OUT/partial.json" | tee "$OUT/quarantine.stdout"
wait "${worker_pids[0]}"
worker_pids=()
grep -q "PARTIAL sweep" "$OUT/quarantine.stdout"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT/partial.json" "$SHARDS" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
shards = int(sys.argv[2])
assert doc["schema"] == "xr.service.partial.v1", doc["schema"]
assert doc["total_shards"] == shards
q = doc["quarantined"]
assert [e["shard"] for e in q] == [0], q
assert q[0]["attempts"] == 2, q
assert "fault injected" in q[0]["last_error"], q
assert sorted(doc["completed"]) == list(range(1, shards)), doc["completed"]
s = doc["summary"]
assert 0 < s["evaluated"] < s["grid_size"], (s["evaluated"], s["grid_size"])
print("   partial document: shard 0 quarantined after 2 attempts, "
      f"{s['evaluated']}/{s['grid_size']} scenarios merged")
PY
else
  grep -q '"schema":"xr.service.partial.v1"' "$OUT/partial.json"
fi

echo
echo "sweep_service_chaos.sh: OK (5 fault kinds -> bitwise summary+plan; quarantine -> xr.service.partial.v1)"
