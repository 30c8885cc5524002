#!/usr/bin/env bash
# Elastic sweep service churn gate: a coordinator leasing shards to a pool
# of `sweep_worker --serve` processes must produce a merged summary (and
# OffloadPlan) byte-identical to the monolithic run — while workers crash
# mid-shard and late joiners pick up the reassigned leases.
#
# Two legs, both checked bitwise against the monolithic reference:
#   * crash leg — one worker killed deterministically mid-shard via the
#                 --crash-after-slices hook, a second worker joins late;
#   * kill leg  — a worker killed for real (kill -9) mid-shard (paced by
#                 --slice-delay-ms so the kill cannot miss), proving the
#                 resume chunk grid holds through reassignment.
#
#   usage: scripts/sweep_service.sh [BUILD_DIR] [SHARDS]
#
# BUILD_DIR defaults to ./build (binaries: sweep_plan, sweep_worker,
# sweep_coordinator); SHARDS defaults to 4 (must be >= 2). Work dirs live
# on /dev/shm when available: the mailbox transport writes, renames and
# deletes one file per message, and on a disk mounted with synchronous
# discard each delete pays TRIM latency that can outlast a lease.
set -euo pipefail

BUILD_DIR="${1:-$(dirname "$0")/../build}"
SHARDS="${2:-4}"
PLAN="$BUILD_DIR/sweep_plan"
WORKER="$BUILD_DIR/sweep_worker"
COORD="$BUILD_DIR/sweep_coordinator"

for bin in "$PLAN" "$WORKER" "$COORD"; do
  if [[ ! -x "$bin" ]]; then
    echo "sweep_service.sh: build $(basename "$bin") first (looked in $BUILD_DIR)" >&2
    exit 2
  fi
done
if (( SHARDS < 2 )); then
  echo "sweep_service.sh: SHARDS must be >= 2" >&2
  exit 2
fi

TMP_ROOT="${TMPDIR:-/tmp}"
if [[ -d /dev/shm && -w /dev/shm ]]; then TMP_ROOT=/dev/shm; fi
OUT="$(mktemp -d "$TMP_ROOT/sweep_service.XXXXXX")"
worker_pids=()
cleanup() {
  for pid in "${worker_pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$OUT"
}
trap cleanup EXIT

echo "== the search as one serializable request =="
"$PLAN" --emit-request --alpha 0.5 > "$OUT/request.json"

echo
echo "== monolithic reference: summary + plan =="
"$PLAN" --request "$OUT/request.json" --summary-out "$OUT/mono.summary.json"
"$PLAN" --request "$OUT/request.json" --plan-out "$OUT/mono.plan.json"

# --- leg 1: deterministic crash + late joiner ----------------------------
echo
echo "== crash leg: $SHARDS shards, crash-after-slices worker + late joiner =="
MAIL="$OUT/svc-crash"
# chunk 16 -> slices of 16 records; the crashing worker dies after 2
# slices, mid-shard, leaving a flushed 32-record prefix for the
# reassigned attempt to resume.
"$WORKER" --serve --mail "$MAIL" --name crashy \
          --slice-records 16 --heartbeat-ms 50 --poll-ms 10 \
          --idle-timeout-ms 60000 --crash-after-slices 2 &
worker_pids+=($!)
( sleep 1
  exec "$WORKER" --serve --mail "$MAIL" --name late-joiner \
       --slice-records 16 --heartbeat-ms 50 --poll-ms 10 \
       --idle-timeout-ms 60000 \
       --metrics-out "$OUT/late-joiner.metrics.json" ) &
worker_pids+=($!)
"$COORD" --request "$OUT/request.json" --mail "$MAIL" \
         --shard-dir "$MAIL/shards" --shards "$SHARDS" \
         --chunk-records 16 --lease-timeout-ms 2000 --poll-ms 20 \
         --out "$OUT/crash.summary.json" --check "$OUT/mono.summary.json" \
         --metrics-out "$OUT/service.metrics.json"
wait "${worker_pids[0]}" || true   # the crash hook exits nonzero by design
wait "${worker_pids[1]}"
worker_pids=()
# Reassignment must actually have happened: an attempt-1 stem exists.
if ! ls "$MAIL/shards/"*.a1.* >/dev/null 2>&1; then
  echo "sweep_service.sh: FAIL (no reassigned attempt stem — crash hook did not bite)" >&2
  exit 1
fi
# The aggregated snapshot carries the coordinator's own counters plus
# worker-labeled ones in a single document (empty in XR_OBS_DISABLED
# builds, where there is nothing to assert).
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT/service.metrics.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
names = list(doc.get("counters", {}))
if not names:
    print("   aggregated snapshot: empty (obs disabled) — skipped")
else:
    assert any(n.startswith("service.coordinator.") for n in names), names
    assert any('{worker="' in n for n in names), names
    print("   aggregated snapshot: coordinator + worker-labeled counters OK")
PY
fi

# --- leg 2: real kill -9 -------------------------------------------------
echo
echo "== kill leg: $SHARDS shards, real kill -9 mid-shard =="
MAIL="$OUT/svc-kill"
# The victim is paced (300 ms per 16-record slice -> ~1.2 s per shard) so
# the kill at t=1 s is guaranteed to land mid-shard, after at least one
# flushed chunk. The survivor joins only after the kill and inherits the
# expired lease's prefix.
"$WORKER" --serve --mail "$MAIL" --name victim \
          --slice-records 16 --slice-delay-ms 300 \
          --heartbeat-ms 50 --poll-ms 10 --idle-timeout-ms 60000 &
victim=$!
worker_pids+=($victim)
( sleep 1; kill -9 "$victim" 2>/dev/null || true ) &
( sleep 1.2
  exec "$WORKER" --serve --mail "$MAIL" --name survivor \
       --slice-records 16 --heartbeat-ms 50 --poll-ms 10 \
       --idle-timeout-ms 60000 ) &
worker_pids+=($!)
"$COORD" --request "$OUT/request.json" --mail "$MAIL" \
         --shard-dir "$MAIL/shards" --shards "$SHARDS" \
         --chunk-records 16 \
         --lease-timeout-ms 2000 --poll-ms 20 \
         --out "$OUT/kill.summary.json" --check "$OUT/mono.summary.json" \
         --plan-out "$OUT/kill.plan.json"
wait "${worker_pids[0]}" 2>/dev/null || true   # kill -9 -> nonzero, expected
wait "${worker_pids[1]}"
worker_pids=()
if ! ls "$MAIL/shards/"*.a1.xrb >/dev/null 2>&1; then
  echo "sweep_service.sh: FAIL (no reassigned attempt stem — the kill missed)" >&2
  exit 1
fi
if ! cmp "$OUT/mono.plan.json" "$OUT/kill.plan.json"; then
  echo "sweep_service.sh: FAIL (service-reduced plan diverged from monolithic)" >&2
  exit 1
fi

echo
echo "sweep_service.sh: OK (churn + late join + kill -9 -> summary/plan == monolithic, bitwise)"
