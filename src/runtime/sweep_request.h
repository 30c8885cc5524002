// SweepRequest — the one serializable entry point for every sweep.
//
// A request bundles the four decisions a sweep is made of:
//
//   {"schema": "xr.sweep.request.v1",
//    "grid":      {<runtime::GridSpec>},        // what to enumerate
//    "evaluator": {<shard::EvaluatorSpec>},     // what to run per point
//    "reduction": {"kind": "summary"} |         // what to keep
//                 {"kind": "offload_plan", "alpha": 0.5},
//    "adaptive":  {"coarse_frames": 20,         // optional: multi-fidelity
//                  "fine_frames": 200,          // (ground truth only; see
//                  "band_fraction": 0.05},      //  runtime/adaptive.h)
//    "execution": {"threads": N, "chunk_records": N, "grain": N}}
//
// from_json is strict: the request and every block it parses (grid, its
// base and axes, evaluator, reduction, execution, adaptive) refuse a key
// they do not know with std::invalid_argument naming block and key, and
// the evaluator and reduction also refuse a key of another kind (a seed
// on an analytical evaluator, an alpha on a summary reduction).
//
// The same document runs monolithically (run_request, below) or sharded
// (sweep_worker --request, one process per shard, merged by sweep_merge)
// with bitwise-equal results: run_request folds the exact PartialReduction
// a worker streams and merges it through the same merge_partials code path,
// so "monolithic" is literally the K = 1 case of the merge law rather than
// a separate implementation.
//
// Reductions:
//   * summary      — the MergedSummary every sweep produces anyway
//                    (argmin/extrema/Pareto, GT aggregates).
//   * offload_plan — the paper's planning workflow: the summary's argmin
//                    and Pareto reductions are decoded back into
//                    OffloadDecisions (core/optimizer.h), producing an
//                    OffloadPlan that merges exactly across shards.
//
// The execution block is per-process mechanics (thread count, flush
// cadence, task grain); it never affects result values
// — only the grid, evaluator, and reduction do, which is why only those
// are fingerprinted.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "core/framework.h"
#include "core/jsonio.h"
#include "runtime/shard/evaluator.h"
#include "runtime/shard/merge.h"
#include "runtime/sweep.h"

namespace xr::runtime {

enum class ReductionKind { kSummary, kOffloadPlan };

[[nodiscard]] const char* reduction_name(ReductionKind k) noexcept;
/// Inverse of reduction_name; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] ReductionKind reduction_from_name(const std::string& name);

/// What to keep from a sweep.
struct ReductionSpec {
  ReductionKind kind = ReductionKind::kSummary;
  /// Weighted-objective latency weight (offload_plan only); must be in
  /// [0, 1] — from_json and plan_offload reject anything else.
  double alpha = 0.5;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static ReductionSpec from_json(const core::Json& j);
};

/// Per-process execution mechanics. Never part of the result identity —
/// thread count, chunk cadence, and task grain never change a value (the
/// bitwise determinism the runtime and shard tests assert).
struct ExecutionSpec {
  /// BatchOptions convention: 0 = shared pool, 1 = strict serial,
  /// N = dedicated pool of N workers.
  std::size_t threads = 0;
  /// Records per flush (one chunk) for sharded streaming runs.
  std::size_t chunk_records = 64;
  /// Indices per claimed parallel task chunk: 0 = auto,
  /// max(1, n / (8 · threads)) — see BatchOptions::grain.
  std::size_t grain = 0;
  /// The record encoding, which has one value. from_json accepts
  /// "format": "binary" and refuses any other name; to_json omits it.
  shard::RecordFormat format = shard::RecordFormat::kBinary;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static ExecutionSpec from_json(const core::Json& j);
};

/// Multi-fidelity execution of a ground-truth sweep (the optional
/// "adaptive" request block; driver in runtime/adaptive.h). Pass 1 runs
/// the whole grid at coarse_frames; a pure selection rule marks
/// refinement candidates — points whose placement decision flips against
/// a grid neighbor, or whose measured latency/energy lies within
/// band_fraction of the incumbent argmin — and pass 2 re-runs only those
/// at fine_frames. Unlike ExecutionSpec this block IS part of the result
/// identity (it changes which fidelity each point ends up with), so it is
/// covered by the sweep fingerprint.
struct AdaptiveSpec {
  /// Pass-1 frames per point; must satisfy 1 <= coarse_frames <
  /// fine_frames (from_json names the offending field).
  std::size_t coarse_frames = 20;
  /// Pass-2 frames per point — the sweep's target fidelity.
  std::size_t fine_frames = 200;
  /// Relative width of the refinement band around each incumbent argmin:
  /// a point refines when latency <= min_latency · (1 + band) or energy
  /// <= min_energy · (1 + band). Must be >= 0; 0 refines the argmins
  /// alone.
  double band_fraction = 0.05;

  /// The one copy of the invariant every consumer enforces: throws
  /// std::invalid_argument (naming the offending field) unless
  /// 1 <= coarse_frames < fine_frames and band_fraction >= 0. from_json,
  /// the AdaptiveSweep driver, and run_worker all call this.
  void validate() const;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static AdaptiveSpec from_json(const core::Json& j);
};

/// The unified sweep request.
struct SweepRequest {
  GridSpec grid;
  shard::EvaluatorSpec evaluator;
  ReductionSpec reduction;
  /// Engaged → adaptive-fidelity execution (ground-truth evaluators only;
  /// from_json rejects the combination with an analytical evaluator).
  std::optional<AdaptiveSpec> adaptive;
  ExecutionSpec execution;

  /// The sweep fingerprint workers stamp on records and partials:
  /// grid + evaluator + the adaptive block when engaged (execution and
  /// reduction excluded — they do not change point values).
  [[nodiscard]] std::uint64_t fingerprint() const;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static SweepRequest from_json(const core::Json& j);
};

/// Execute a request in-process and reduce it to the merged summary: the
/// grid is evaluated on a BatchEvaluator pool (execution.threads), folded
/// into a single-shard PartialReduction, and passed through
/// shard::merge_partials — the K = 1 case of the merge law, so a sharded
/// run of the same request merges bitwise identical to this result.
/// Adaptive requests dispatch to the two-pass driver (run_adaptive in
/// runtime/adaptive.h) and return its hybrid summary under the same law.
[[nodiscard]] shard::MergedSummary run_request(
    const SweepRequest& request, const core::XrPerformanceModel& model = {});

}  // namespace xr::runtime
