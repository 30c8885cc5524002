#!/usr/bin/env bash
# Sharded sweep acceptance gate: K sweep_worker processes + sweep_merge over
# the testbed ablation grid (one request, emitted by
# `sweep_plan --emit-ablation-request`) must reproduce the single-process
# summary bitwise. Also demonstrates kill/resume: two shards are stopped early —
# one mid-chunk, one on a chunk boundary — resumed from their record
# streams, and must come out byte-identical to an uninterrupted run. The
# shards merge from their .xrb record streams to the bitwise summary, and
# the concatenated `sweep_merge --dump` of the K range shards equals the
# monolithic dump.
#
#   usage: scripts/sweep_sharded.sh [BUILD_DIR] [SHARDS]
#
# BUILD_DIR defaults to ./build (binaries: sweep_plan, sweep_worker,
# sweep_merge);
# SHARDS defaults to 3 (must be >= 2 for the acceptance criterion).
set -euo pipefail

BUILD_DIR="${1:-$(dirname "$0")/../build}"
SHARDS="${2:-3}"
PLAN="$BUILD_DIR/sweep_plan"
WORKER="$BUILD_DIR/sweep_worker"
MERGE="$BUILD_DIR/sweep_merge"

if [[ ! -x "$PLAN" || ! -x "$WORKER" || ! -x "$MERGE" ]]; then
  echo "sweep_sharded.sh: build sweep_plan/sweep_worker/sweep_merge first (looked in $BUILD_DIR)" >&2
  exit 2
fi
if (( SHARDS < 2 )); then
  echo "sweep_sharded.sh: SHARDS must be >= 2" >&2
  exit 2
fi

OUT="$(mktemp -d "${TMPDIR:-/tmp}/sweep_sharded.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

REQUEST="$OUT/ablation.request.json"
"$PLAN" --emit-ablation-request > "$REQUEST"

echo "== monolithic reference (shard_count = 1) =="
"$WORKER" --request "$REQUEST" --shard-id 0 --shard-count 1 --out "$OUT/mono"
"$MERGE" --out "$OUT/mono.summary.json" "$OUT/mono.xrb"

echo
echo "== sharded run: $SHARDS concurrent worker processes =="
pids=()
for (( k=0; k<SHARDS; k++ )); do
  "$WORKER" --request "$REQUEST" --shard-id "$k" --shard-count "$SHARDS" \
            --out "$OUT/shard$k" --chunk 4 &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done

# Redo shard K, killed after N records, and resume it: the stream must be
# byte-identical to the clean run's.
kill_resume() {  # $1 = shard, $2 = records before the kill
  local k="$1" n="$2"
  cp "$OUT/shard$k.xrb" "$OUT/shard$k.clean.ref"
  rm -f "$OUT/shard$k.xrb"
  "$WORKER" --request "$REQUEST" --shard-id "$k" --shard-count "$SHARDS" \
            --out "$OUT/shard$k" --chunk 4 --max-records "$n"
  "$WORKER" --request "$REQUEST" --shard-id "$k" --shard-count "$SHARDS" \
            --out "$OUT/shard$k" --chunk 4 --resume
  cmp "$OUT/shard$k.xrb" "$OUT/shard$k.clean.ref" \
    || { echo "sweep_sharded.sh: resumed shard $k differs from clean run" >&2; exit 1; }
}

echo
echo "== kill/resume: shard 0 killed mid-chunk (3 records), shard 1 on the chunk grid (4) =="
kill_resume 0 3
kill_resume 1 4

echo
echo "== merge the .xrb record streams + bitwise check against the monolithic summary =="
records=()
for (( k=0; k<SHARDS; k++ )); do records+=("$OUT/shard$k.xrb"); done
"$MERGE" --out "$OUT/sharded.summary.json" \
         --check "$OUT/mono.summary.json" "${records[@]}"

echo
echo "== dump: the K range shards' records, concatenated, are the monolithic records =="
"$MERGE" --dump "$OUT/mono.xrb" > "$OUT/mono.dump"
for (( k=0; k<SHARDS; k++ )); do "$MERGE" --dump "$OUT/shard$k.xrb"; done \
  > "$OUT/sharded.dump"
[[ -s "$OUT/mono.dump" ]] \
  || { echo "sweep_sharded.sh: empty monolithic dump" >&2; exit 1; }
cmp "$OUT/mono.dump" "$OUT/sharded.dump" \
  || { echo "sweep_sharded.sh: sharded dump differs from monolithic dump" >&2; exit 1; }

echo
echo "sweep_sharded.sh: OK ($SHARDS shards == monolithic, bitwise: streams, dumps)"
