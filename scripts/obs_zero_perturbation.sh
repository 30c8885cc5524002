#!/usr/bin/env bash
# Zero-perturbation gate: neither telemetry nor the fault-injection hooks
# may change a computed value.
#
# Builds a second tools-only tree with both stub macros set:
# -DXR_OBS_DISABLED=ON (the registry, spans, and snapshots compile to
# no-op stubs — no atomics on the off path) and -DXR_FAULT_DISABLED=ON
# (every failpoint compiles to an inline `return nullopt`). The stub tree
# is also compiled with -march=native, so the same diffs prove that no
# value moves with the target ISA either (the xr target pins
# -ffp-contract=off). It runs the same workloads in both builds, with no
# fault schedule loaded, and diffs every artifact that carries results:
#
#   1. a 2-shard ablation sweep and the local and remote Fig. 4
#      ground-truth validation sweeps (200 frames, 4 threads), each run
#      from the request its tree's sweep_plan emits: the .xrb
#      record streams must be byte-identical, and the merged summaries
#      bitwise equivalent (sweep_merge --check). The default tree runs
#      these once more under
#      GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA — the libm variants a
#      host without FMA would pick — and those streams must match too;
#   2. a plan-index build + serves across all three tiers (exact / snap /
#      computed): index.json and every serve's stdout must be
#      byte-identical;
#   3. an elastic-service run (sweep_coordinator + one sweep_worker
#      --serve, no churn, so the stems are the deterministic
#      shard<k>.a0): the record streams must be byte-identical and the
#      merged summaries bitwise equivalent. Every failpoint sits on this
#      path (transport, sink flush, worker slice, coordinator fold), so
#      this is the fault stubs' main check.
#
# Finally the obs-on build's --metrics-out snapshots are grepped for the
# shard-worker and serving-tier counters, so the gate also fails if the
# instrumentation itself rots away.
#
#   usage: scripts/obs_zero_perturbation.sh [BUILD_DIR]
#
# BUILD_DIR defaults to ./build (telemetry and failpoints on). The stub
# build is cached in BUILD_DIR/stubs-off and configured with the same build
# type, so the two binaries differ only in the two stub macros and the
# target ISA.
set -euo pipefail

BUILD_DIR="${1:-$(dirname "$0")/../build}"
BUILD_DIR="$(cd "$BUILD_DIR" && pwd)"
SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"
OFF_DIR="$BUILD_DIR/stubs-off"
unset XR_FAULT_SCHEDULE  # the default build must inject nothing either.

for bin in sweep_worker sweep_merge plan_index sweep_plan sweep_coordinator; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "obs_zero_perturbation.sh: build $bin first (looked in $BUILD_DIR)" >&2
    exit 2
  fi
done

BUILD_TYPE="$(grep -m1 '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" \
              | cut -d= -f2)"
BUILD_TYPE="${BUILD_TYPE:-Release}"

echo "== configure + build the XR_OBS_DISABLED + XR_FAULT_DISABLED -march=native stub tree ($BUILD_TYPE) =="
cmake -S "$SRC_DIR" -B "$OFF_DIR" \
      -DCMAKE_BUILD_TYPE="$BUILD_TYPE" -DCMAKE_CXX_FLAGS=-march=native \
      -DXR_OBS_DISABLED=ON -DXR_FAULT_DISABLED=ON \
      -DXR_BUILD_TESTS=OFF -DXR_BUILD_BENCH=OFF -DXR_BUILD_EXAMPLES=OFF \
      >/dev/null
cmake --build "$OFF_DIR" \
      --target sweep_worker sweep_merge plan_index sweep_plan \
               sweep_coordinator -j "$(nproc)" >/dev/null

# Prefer tmpfs: the mailbox transport writes, renames and deletes one file
# per message, and on a disk mounted with synchronous discard each delete
# pays TRIM latency that can outlast a lease.
TMP_ROOT="${TMPDIR:-/tmp}"
if [[ -d /dev/shm && -w /dev/shm ]]; then TMP_ROOT=/dev/shm; fi
OUT="$(mktemp -d "$TMP_ROOT/obs_zero.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

SWEEP_STREAMS=(s0.xrb s1.xrb gt_local.xrb gt_remote.xrb)
run_sweep() {  # $1 = bindir, $2 = outdir
  local bin="$1" out="$2"
  mkdir -p "$out"
  "$bin/sweep_plan" --emit-ablation-request > "$out/ablation.request.json"
  for k in 0 1; do
    "$bin/sweep_worker" --request "$out/ablation.request.json" \
                        --shard-id "$k" --shard-count 2 \
                        --out "$out/s$k" --chunk 4 \
                        --metrics-out "$out/s$k.metrics.json" >/dev/null
  done
  "$bin/sweep_merge" --out "$out/summary.json" \
                     --metrics-out "$out/merge.metrics.json" \
                     "$out/s0.xrb" "$out/s1.xrb" >/dev/null
  for placement in local remote; do
    "$bin/sweep_plan" --emit-validation-request "$placement" \
                      --gt-frames 200 --gt-seed 42 \
                      > "$out/gt_$placement.request.json"
    "$bin/sweep_worker" --request "$out/gt_$placement.request.json" \
                        --threads 4 --shard-id 0 --shard-count 1 \
                        --out "$out/gt_$placement" >/dev/null
  done
}

run_index() {  # $1 = bindir, $2 = outdir
  local bin="$1" out="$2"
  mkdir -p "$out"
  "$bin/plan_index" --emit-spec \
                    --axis frame_size=300,500 --axis throughput_mbps=50,100 \
                    --gap 0.1 > "$out/index.spec.json"
  "$bin/plan_index" --build "$out/index.spec.json" --out "$out/index.json" \
                    --metrics-out "$out/build.metrics.json" >/dev/null
  # One query per serving tier; stdout carries the full served plan.
  "$bin/plan_index" --serve "$out/index.json" --at 300,50 \
                    > "$out/serve_exact.txt"
  "$bin/plan_index" --serve "$out/index.json" --at 510,98 \
                    > "$out/serve_snap.txt"
  "$bin/plan_index" --serve "$out/index.json" --at 900,10 \
                    --metrics-out "$out/serve.metrics.json" \
                    > "$out/serve_miss.txt"
}

echo
echo "== workload A: ablation + GT sweeps, default vs stubs vs libm without FMA =="
run_sweep "$BUILD_DIR" "$OUT/on"
run_sweep "$OFF_DIR" "$OUT/off"
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA run_sweep "$BUILD_DIR" "$OUT/nofma"
for f in "${SWEEP_STREAMS[@]}"; do
  cmp "$OUT/on/$f" "$OUT/off/$f" \
    || { echo "obs_zero_perturbation.sh: $f differs between builds" >&2; exit 1; }
  cmp "$OUT/on/$f" "$OUT/nofma/$f" \
    || { echo "obs_zero_perturbation.sh: $f differs under GLIBC_TUNABLES" >&2; exit 1; }
done
# Summaries via the merge law's own equivalence (wall stats excluded).
"$BUILD_DIR/sweep_merge" --check "$OUT/off/summary.json" \
                         "$OUT/on/s0.xrb" "$OUT/on/s1.xrb" >/dev/null

# Coordinator + one serving worker, no churn: every shard completes on
# attempt 0, so the stems are the deterministic shard<k>.a0 pair.
run_service() {  # $1 = bindir, $2 = outdir
  local bin="$1" out="$2"
  mkdir -p "$out/svc"
  "$bin/sweep_plan" --emit-request --alpha 0.5 > "$out/svc/request.json"
  "$bin/sweep_worker" --serve --mail "$out/svc/mail" --name w0 \
                      --slice-records 16 --heartbeat-ms 50 --poll-ms 5 \
                      --idle-timeout-ms 60000 >/dev/null &
  local wpid=$!
  "$bin/sweep_coordinator" --request "$out/svc/request.json" \
                           --mail "$out/svc/mail" \
                           --shard-dir "$out/svc/shards" --shards 2 \
                           --chunk-records 16 --lease-timeout-ms 20000 \
                           --out "$out/svc/summary.json" \
                           --metrics-out "$out/svc/service.metrics.json" \
                           >/dev/null
  wait "$wpid"
}

echo "== workload B: plan-index build + 3-tier serves, default vs stubs =="
run_index "$BUILD_DIR" "$OUT/on"
run_index "$OFF_DIR" "$OUT/off"
for f in index.spec.json index.json serve_exact.txt serve_snap.txt \
         serve_miss.txt; do
  cmp "$OUT/on/$f" "$OUT/off/$f" \
    || { echo "obs_zero_perturbation.sh: $f differs between builds" >&2; exit 1; }
done

echo "== workload C: elastic sweep service, default vs stubs =="
run_service "$BUILD_DIR" "$OUT/on"
run_service "$OFF_DIR" "$OUT/off"
for f in svc/shards/shard0.a0.xrb svc/shards/shard1.a0.xrb; do
  cmp "$OUT/on/$f" "$OUT/off/$f" \
    || { echo "obs_zero_perturbation.sh: $f differs between builds" >&2; exit 1; }
done
# Summaries via the merge law's equivalence (wall stats excluded).
"$BUILD_DIR/sweep_merge" --check "$OUT/off/svc/summary.json" \
                         "$OUT/on/svc/shards/shard0.a0.xrb" \
                         "$OUT/on/svc/shards/shard1.a0.xrb" >/dev/null

echo "== instrumentation present in the obs-on snapshots =="
grep -q '"shard.worker.records_streamed":' "$OUT/on/s0.metrics.json"
grep -q '"shard.worker.chunks":' "$OUT/on/s0.metrics.json"
grep -q '"shard.sink.binary.records":' "$OUT/on/s0.metrics.json"
grep -q '"shard.sink.binary.bytes":' "$OUT/on/s0.metrics.json"
grep -q '"shard.sink.flush_ms":' "$OUT/on/s0.metrics.json"
grep -q '"shard.merge.merges":' "$OUT/on/merge.metrics.json"
grep -q '"serving.plan_index.exact_hits":1' "$OUT/on/serve.metrics.json" \
  || grep -q '"serving.plan_index.computed":1' "$OUT/on/serve.metrics.json"
grep -q '"serving.kernel.decisions":' "$OUT/on/build.metrics.json"
grep -q '"serving.kernel.scenarios":' "$OUT/on/build.metrics.json"
grep -q '"service.coordinator.leases_completed":2' \
  "$OUT/on/svc/service.metrics.json"
# The label's quotes are JSON-escaped inside the document string.
grep -q 'worker=\\"w0\\"' "$OUT/on/svc/service.metrics.json"
# And the stub build's snapshots really are empty.
grep -q '"counters":{}' "$OUT/off/s0.metrics.json"
grep -q '"counters":{}' "$OUT/off/svc/service.metrics.json"

echo
echo "obs_zero_perturbation.sh: OK (all outputs bitwise identical, default build == obs + fault stubs at -march=native == libm without FMA)"
