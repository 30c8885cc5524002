#!/usr/bin/env bash
# Adaptive-fidelity sweep acceptance gate (runtime/adaptive.h): an adaptive
# request run as K sharded two-pass workers must merge bitwise-equivalent
# to the monolithic AdaptiveSweep driver — coarse legs, a refinement set
# derived once from the coarse record streams, hybrid fine legs copying
# unrefined records (including a kill/resume mid-fine-leg) — and the
# refined argmin must equal the full-fidelity argmin (every point at
# fine_frames with refinement-pass seeds), index and value.
#
#   usage: scripts/sweep_adaptive.sh [BUILD_DIR] [SHARDS]
#
# BUILD_DIR defaults to ./build (binaries: sweep_plan, sweep_worker,
# sweep_merge); SHARDS defaults to 3 (must be >= 2).
set -euo pipefail

BUILD_DIR="${1:-$(dirname "$0")/../build}"
SHARDS="${2:-3}"
PLAN="$BUILD_DIR/sweep_plan"
WORKER="$BUILD_DIR/sweep_worker"
MERGE="$BUILD_DIR/sweep_merge"

for bin in "$PLAN" "$WORKER" "$MERGE"; do
  if [[ ! -x "$bin" ]]; then
    echo "sweep_adaptive.sh: build $(basename "$bin") first (looked in $BUILD_DIR)" >&2
    exit 2
  fi
done
if (( SHARDS < 2 )); then
  echo "sweep_adaptive.sh: SHARDS must be >= 2" >&2
  exit 2
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/sweep_adaptive.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

echo "== the Fig. 4(b) validation sweep as one adaptive request =="
# Modest fidelities keep the gate fast; the bitwise law is fidelity-free.
"$PLAN" --emit-validation-request remote --gt-seed 42 --gt-frames 48 \
        --coarse-frames 8 --band 0.05 > "$OUT/request.json"
head -c 200 "$OUT/request.json"; echo " ..."

echo
echo "== monolithic reference: the in-process two-pass driver =="
"$PLAN" --request "$OUT/request.json" --summary-out "$OUT/mono.summary.json"

echo
echo "== pass 1: $SHARDS concurrent coarse legs =="
pids=()
for (( k=0; k<SHARDS; k++ )); do
  "$WORKER" --request "$OUT/request.json" --pass coarse --shard-id "$k" \
            --shard-count "$SHARDS" --out "$OUT/c$k" --chunk 2 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

echo
echo "== refinement set: one pure selection over the coarse streams =="
coarse=()
for (( k=0; k<SHARDS; k++ )); do coarse+=("$OUT/c$k.xrb"); done
"$PLAN" --request "$OUT/request.json" --refine-out "$OUT/refine.json" \
        "${coarse[@]}"

echo
echo "== pass 2: $SHARDS hybrid fine legs (shard 1 killed + resumed) =="
pids=()
for (( k=0; k<SHARDS; k++ )); do
  if (( k == 1 )); then continue; fi
  "$WORKER" --request "$OUT/request.json" --pass fine \
            --refine "$OUT/refine.json" --coarse "$OUT/c$k" \
            --shard-id "$k" --shard-count "$SHARDS" --out "$OUT/f$k" \
            --chunk 2 &
  pids+=($!)
done
"$WORKER" --request "$OUT/request.json" --pass fine \
          --refine "$OUT/refine.json" --coarse "$OUT/c1" \
          --shard-id 1 --shard-count "$SHARDS" --out "$OUT/f1" \
          --chunk 2 --max-records 2
"$WORKER" --request "$OUT/request.json" --pass fine \
          --refine "$OUT/refine.json" --coarse "$OUT/c1" \
          --shard-id 1 --shard-count "$SHARDS" --out "$OUT/f1" \
          --chunk 2 --resume
for pid in "${pids[@]}"; do wait "$pid"; done

echo
echo "== merge + bitwise check against the monolithic adaptive summary =="
records=()
for (( k=0; k<SHARDS; k++ )); do records+=("$OUT/f$k.xrb"); done
"$MERGE" --request "$OUT/request.json" --out "$OUT/sharded.summary.json" \
         --check "$OUT/mono.summary.json" "${records[@]}"

echo
echo "== full-fidelity reference: every point refined (pass-2 seeds) =="
"$WORKER" --request "$OUT/request.json" --pass fine --refine-all \
          --shard-id 0 --shard-count 1 --out "$OUT/full"
"$MERGE" --out "$OUT/full.summary.json" "$OUT/full.xrb"

echo
echo "== refined argmin == full-fidelity argmin (index and value) =="
python3 - "$OUT/sharded.summary.json" "$OUT/full.summary.json" <<'EOF'
import json, sys
adaptive = json.load(open(sys.argv[1]))
full = json.load(open(sys.argv[2]))
for key in ("best_latency_index", "min_latency_ms",
            "best_energy_index", "min_energy_mj"):
    if adaptive[key] != full[key]:
        sys.exit(f"argmin diverged on {key}: "
                 f"adaptive {adaptive[key]} vs full {full[key]}")
print("argmin identical: "
      f"latency index {adaptive['best_latency_index']} "
      f"({adaptive['min_latency_ms']} ms), "
      f"energy index {adaptive['best_energy_index']} "
      f"({adaptive['min_energy_mj']} mJ)")
EOF

echo
echo "sweep_adaptive.sh: OK ($SHARDS two-pass shards == monolithic adaptive, bitwise, incl. kill/resume; refined argmin == full-fidelity argmin)"
