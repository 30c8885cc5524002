#!/usr/bin/env bash
# Offload-plan merge-law acceptance gate: a plan_offload search expressed as
# a unified SweepRequest and run as K sharded sweep_worker processes must
# merge (sweep_merge --request --plan-out) to an OffloadPlan byte-identical
# to the monolithic plan_offload call (sweep_plan --request --plan-out) —
# best-latency, best-energy, best-weighted, and the full Pareto frontier.
# Also exercises kill/resume: one shard is killed early and resumed from
# its record stream before the merge, byte-identical to its clean run. The
# shards' .xrb record streams merge and reduce to the plan.
#
#   usage: scripts/sweep_offload_plan.sh [BUILD_DIR] [SHARDS]
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
    echo "sweep_offload_plan.sh: build $(basename "$bin") first (looked in $BUILD_DIR)" >&2
    exit 2
  fi
done
if (( SHARDS < 2 )); then
  echo "sweep_offload_plan.sh: SHARDS must be >= 2" >&2
  exit 2
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/sweep_offload_plan.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

echo "== the search as one serializable request =="
"$PLAN" --emit-request --alpha 0.5 > "$OUT/request.json"
head -c 200 "$OUT/request.json"; echo " ..."

echo
echo "== monolithic reference: plan_offload on the request =="
"$PLAN" --request "$OUT/request.json" --plan-out "$OUT/mono.plan.json"

echo
echo "== sharded run: $SHARDS concurrent worker processes =="
pids=()
for (( k=0; k<SHARDS; k++ )); do
  "$WORKER" --request "$OUT/request.json" --shard-id "$k" \
            --shard-count "$SHARDS" --out "$OUT/shard$k" --chunk 8 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

echo
echo "== kill/resume: redo shard 1, killed after 5 records =="
cp "$OUT/shard1.xrb" "$OUT/shard1.clean.ref"
rm -f "$OUT/shard1.xrb"
"$WORKER" --request "$OUT/request.json" --shard-id 1 --shard-count "$SHARDS" \
          --out "$OUT/shard1" --chunk 8 --max-records 5
"$WORKER" --request "$OUT/request.json" --shard-id 1 --shard-count "$SHARDS" \
          --out "$OUT/shard1" --chunk 8 --resume
cmp "$OUT/shard1.xrb" "$OUT/shard1.clean.ref" \
  || { echo "sweep_offload_plan.sh: resumed shard 1 differs from clean run" >&2; exit 1; }

# Reduce the merged operands to the plan; it must match the monolithic one.
merge_plan() {  # $1 = label, rest = operands
  local label="$1"
  shift
  "$MERGE" --request "$OUT/request.json" --plan-out "$OUT/$label.plan.json" "$@"
  if ! cmp "$OUT/mono.plan.json" "$OUT/$label.plan.json"; then
    echo "sweep_offload_plan.sh: FAIL ($label plan diverged)" >&2
    exit 1
  fi
}

echo
echo "== merge the .xrb record streams + reduce to the offload plan =="
records=()
for (( k=0; k<SHARDS; k++ )); do records+=("$OUT/shard$k.xrb"); done
merge_plan records "${records[@]}"

echo "sweep_offload_plan.sh: OK ($SHARDS shards -> OffloadPlan == monolithic, byte-identical)"
