#!/usr/bin/env bash
# Sharded *ground-truth* sweep acceptance gate: K sweep_worker processes
# running the testbed-substitute simulator over the Fig. 4(b) validation
# grid (one request, emitted by `sweep_plan --emit-validation-request`)
# must merge bitwise-equivalent to the single-process summary — for
# both range and strided partitioning, and through a kill/resume mid-shard.
# Per-point simulator seeds derive from the global grid index, so shard
# count, strategy, and resume position must not change a single bit: each
# killed shard's resumed .xrb stream must be byte-identical to its clean
# run, and the shards' record streams merge to the monolithic summary.
#
#   usage: scripts/sweep_gt_sharded.sh [BUILD_DIR] [SHARDS]
#
# BUILD_DIR defaults to ./build (binaries: sweep_plan, sweep_worker,
# sweep_merge);
# SHARDS defaults to 3 (must be >= 3 for the acceptance criterion).
set -euo pipefail

BUILD_DIR="${1:-$(dirname "$0")/../build}"
SHARDS="${2:-3}"
PLAN="$BUILD_DIR/sweep_plan"
WORKER="$BUILD_DIR/sweep_worker"
MERGE="$BUILD_DIR/sweep_merge"

if [[ ! -x "$PLAN" || ! -x "$WORKER" || ! -x "$MERGE" ]]; then
  echo "sweep_gt_sharded.sh: build sweep_plan/sweep_worker/sweep_merge first (looked in $BUILD_DIR)" >&2
  exit 2
fi
if (( SHARDS < 3 )); then
  echo "sweep_gt_sharded.sh: SHARDS must be >= 3" >&2
  exit 2
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/sweep_gt_sharded.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

# The ground-truth request: modest fidelity keeps the gate fast; the
# bitwise law is independent of the frame count.
"$PLAN" --emit-validation-request remote --gt-seed 42 --gt-frames 40 \
        > "$OUT/gt.request.json"
GT=(--request "$OUT/gt.request.json")

echo "== monolithic reference (shard_count = 1, ground_truth evaluator) =="
"$WORKER" "${GT[@]}" --shard-id 0 --shard-count 1 --out "$OUT/mono"
"$MERGE" --out "$OUT/mono.summary.json" "$OUT/mono.xrb"

echo
echo "== range: $SHARDS concurrent ground-truth worker processes =="
pids=()
for (( k=0; k<SHARDS; k++ )); do
  "$WORKER" "${GT[@]}" --shard-id "$k" --shard-count "$SHARDS" \
            --strategy range --out "$OUT/range$k" --chunk 2 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

# Redo one shard, killed after N records, and resume it: the stream must be
# byte-identical to the clean run's.
kill_resume() {  # $1 = strategy, $2 = shard, $3 = records before the kill
  local strategy="$1" k="$2" n="$3" stem="$OUT/$1$2"
  cp "$stem.xrb" "$stem.clean.ref"
  rm -f "$stem.xrb"
  "$WORKER" "${GT[@]}" --shard-id "$k" --shard-count "$SHARDS" \
            --strategy "$strategy" --out "$stem" --chunk 2 --max-records "$n"
  "$WORKER" "${GT[@]}" --shard-id "$k" --shard-count "$SHARDS" \
            --strategy "$strategy" --out "$stem" --chunk 2 --resume
  cmp "$stem.xrb" "$stem.clean.ref" \
    || { echo "sweep_gt_sharded.sh: resumed $strategy$k differs from clean run" >&2; exit 1; }
}

echo
echo "== range: kill/resume mid-shard (shard 1 stopped after 2 records) =="
kill_resume range 1 2

echo
echo "== range merge + bitwise check against the monolithic summary =="
records=()
for (( k=0; k<SHARDS; k++ )); do records+=("$OUT/range$k.xrb"); done
"$MERGE" --out "$OUT/range.summary.json" \
         --check "$OUT/mono.summary.json" "${records[@]}"

echo
echo "== strided: $SHARDS concurrent ground-truth worker processes =="
pids=()
for (( k=0; k<SHARDS; k++ )); do
  "$WORKER" "${GT[@]}" --shard-id "$k" --shard-count "$SHARDS" \
            --strategy strided --out "$OUT/strided$k" --chunk 2 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

echo
echo "== strided: kill/resume mid-shard (shard 0 stopped after 3 records) =="
kill_resume strided 0 3

echo
echo "== strided merge + bitwise check against the monolithic summary =="
records=()
for (( k=0; k<SHARDS; k++ )); do records+=("$OUT/strided$k.xrb"); done
"$MERGE" --out "$OUT/strided.summary.json" \
         --check "$OUT/mono.summary.json" "${records[@]}"

echo
echo "sweep_gt_sharded.sh: OK (range and strided x$SHARDS == monolithic, bitwise, incl. kill/resume)"
