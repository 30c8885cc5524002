// Fold K shard partial reductions into one monolithic-equivalent summary.
//
// The merge law — the whole point of the sharded subsystem — is that for
// any disjoint complete cover of a grid,
//
//   merge_partials(partials over K shards)  ≡  BatchEvaluator::run(grid)
//
// bitwise, on every deterministic field: best_latency_index /
// best_energy_index, the four extrema, and the Pareto frontier (indices and
// values). tests/runtime/test_sharded_merge.cpp asserts this for K ∈
// {1, 2, 3, 7} on randomized grids, and scripts/sweep_sharded.sh asserts it
// across real worker processes.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "runtime/batch_evaluator.h"
#include "runtime/shard/streaming_sink.h"

namespace xr::runtime::shard {

/// Aggregate throughput of the partials' own processes (not part of the
/// bitwise identity; folds of record streams carry zeros).
struct MergeStats {
  std::size_t shards = 0;
  double wall_ms_sum = 0;  ///< total CPU-side work.
  double wall_ms_max = 0;  ///< makespan when shards ran concurrently.
};

/// The BatchResult-equivalent summary of a sharded sweep.
///
/// For ground-truth sweeps the extrema/Pareto fields range over the
/// *measured* per-point means, and `gt` carries the exactly-merged
/// aggregates (mean GT latency/energy, mean model error vs the analytical
/// prediction) — bitwise identical for every disjoint cover of the grid.
struct MergedSummary {
  std::size_t grid_size = 0;
  std::size_t shard_count = 0;
  ShardStrategy strategy = ShardStrategy::kRange;
  std::size_t evaluated = 0;
  std::uint64_t grid_fingerprint = 0;  ///< from the workers' GridSpec.

  std::size_t best_latency_index = 0;
  std::size_t best_energy_index = 0;
  double min_latency_ms = 0, max_latency_ms = 0;
  double min_energy_mj = 0, max_energy_mj = 0;
  std::vector<ParetoPoint> pareto;  ///< latency-ascending frontier.

  /// Ground-truth aggregates; engaged iff the workers ran the GT evaluator.
  std::optional<GtAggregate> gt;

  MergeStats stats;

  [[nodiscard]] std::vector<std::size_t> pareto_indices() const;
  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static MergedSummary from_json(const Json& j);
};

/// Merge a complete disjoint cover. Throws std::invalid_argument when the
/// partials disagree on the partition or evaluator kind, a shard is
/// missing or duplicated, or any shard is incomplete (evaluated != its
/// plan size).
///
/// With `require_complete_cover = false` (the coordinator's quarantine
/// path: summarize the shards that DID finish) missing shards are
/// permitted — extrema/Pareto then range over the present shards only and
/// `evaluated < grid_size` records the gap. Every present shard must
/// still be internally complete, duplicate-free, and partition-agreed.
[[nodiscard]] MergedSummary merge_partials(
    const std::vector<PartialReduction>& partials,
    bool require_complete_cover = true);

/// Rebuild one shard's PartialReduction from its <stem>.xrb record
/// stream: the identity comes from the stream's own header, and every
/// record is folded in order (fold_binary_partial). The stream must be
/// complete and valid: tears and corruption are named errors, never
/// truncation. Throws std::invalid_argument naming any path that is not a
/// .xrb record stream.
[[nodiscard]] PartialReduction partial_from_records(
    const std::string& record_path);

/// Fold K shard record streams (partial_from_records) and merge them.
[[nodiscard]] MergedSummary merge_partial_files(
    const std::vector<std::string>& paths);

/// Compare the deterministic fields of two summaries (stats excluded).
/// On mismatch returns false and, when `why` is non-null, describes the
/// first differing field.
[[nodiscard]] bool summaries_equivalent(const MergedSummary& a,
                                        const MergedSummary& b,
                                        std::string* why = nullptr);

/// Compare a merged summary against an in-memory monolithic BatchResult
/// (analytical summaries only; a ground-truth summary never matches).
[[nodiscard]] bool matches_batch_result(const MergedSummary& summary,
                                        const BatchResult& result,
                                        std::string* why = nullptr);

}  // namespace xr::runtime::shard
