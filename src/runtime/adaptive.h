// Adaptive-fidelity ground-truth sweeps: coarse pass + boundary refinement.
//
// The GroundTruthSimulator dominates validation-sweep wall time — every
// grid point is a full simulated episode, and fidelity (frames per point)
// buys accuracy linearly in wall time. But the quantities a sweep is run
// for (the argmin, the placement decision set, the Pareto shape) are
// decided by a handful of points near decision boundaries; everywhere
// else a cheap estimate is enough. AdaptiveSweep operationalizes that:
//
//   pass 1 (coarse)  — the ENTIRE grid at AdaptiveSpec::coarse_frames
//                      (seeds point_seed(seed, i, 1));
//   selection        — a pure rule over the coarse measurements marks
//                      refinement candidates: points whose latency or
//                      energy lies within band_fraction of the incumbent
//                      argmin, plus — when the grid has a "placement"
//                      axis — every point of any reduced cell whose
//                      latency-optimal placement flips against a grid
//                      neighbor (the decision boundary);
//   pass 2 (fine)    — ONLY the candidates, re-evaluated at fine_frames
//                      (seeds point_seed(seed, i, 2)).
//
// The result is a hybrid sweep — fine values at the points that decide,
// coarse values elsewhere — reduced through the ordinary merge law.
//
// Determinism contract (the same one every sweep in this repo obeys):
// each pass's per-point seed derives from (sweep_seed, global_index,
// pass) and nothing else, and the selection rule is a pure function of
// the coarse measurements — themselves bitwise shard-independent — so the
// refinement set, the hybrid records, and the merged summary are bitwise
// independent of shard count, strategy, thread count, and resume
// position. Sharded execution: run each shard's coarse leg with
// `sweep_worker --request R --pass coarse`, derive the refinement set
// once from the coarse record streams (`sweep_plan --refine-out`), then
// run each shard's fine leg with `--pass fine --refine SET --coarse
// STEM`: the pass-2 worker re-evaluates its refined indices and copies
// every other record from its own coarse stream, producing complete
// hybrid partials that merge through the unmodified merge_partials
// (scripts/sweep_adaptive.sh is the ctest gate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/sweep_request.h"

namespace xr::runtime {

/// One point's scalar estimates — the selection rule's whole input, and
/// the per-point output of the driver (coarse or fine, per the set).
struct PointEstimate {
  double latency_ms = 0;
  double energy_mj = 0;
};

/// The pass-1 evaluator of an adaptive request: the base evaluator at
/// coarse_frames, pass 1.
[[nodiscard]] shard::EvaluatorSpec coarse_evaluator(
    const shard::EvaluatorSpec& base, const AdaptiveSpec& adaptive);
/// The pass-2 evaluator: fine_frames, pass 2.
[[nodiscard]] shard::EvaluatorSpec fine_evaluator(
    const shard::EvaluatorSpec& base, const AdaptiveSpec& adaptive);

/// The sweep fingerprint of an adaptive request: grid + base evaluator +
/// adaptive block, chained the same way grid_fingerprint chains grid and
/// evaluator. Hybrid (pass-2) record streams and partials carry this, so
/// resume and merge can never mix an adaptive sweep with either of its
/// single-fidelity cousins.
[[nodiscard]] std::uint64_t adaptive_fingerprint(
    const GridSpec& grid, const shard::EvaluatorSpec& evaluator,
    const AdaptiveSpec& adaptive);

/// The pure selection rule: given the coarse measurement of every grid
/// point (indexed by global grid index; size must equal the grid's size),
/// return the sorted, deduplicated refinement set. Two sub-rules, united:
///
///   * band — latency <= min_latency · (1 + band_fraction), or energy <=
///     min_energy · (1 + band_fraction). Inclusive at the edge, so the
///     argmins themselves always refine (band 0 refines them alone).
///   * boundary flip — when the grid has a "placement" axis with >= 2
///     values: for each reduced cell (the coordinates of every other
///     axis), the placement decision is the axis value minimizing coarse
///     latency (ties to the earlier axis position). Every point of two
///     cells adjacent along any non-placement axis whose decisions
///     disagree is a candidate — those cells straddle the decision
///     boundary, where coarse-pass noise can flip the answer.
///
/// Throws std::invalid_argument when coarse.size() disagrees with the
/// grid's size.
[[nodiscard]] std::vector<std::size_t> select_refinement(
    const GridSpec& grid, const std::vector<PointEstimate>& coarse,
    const AdaptiveSpec& adaptive);

/// Serializable refinement-set document ("xr.sweep.refine.v1") — the file
/// `sweep_plan --refine-out` writes and `sweep_worker --refine` consumes.
/// Carries the adaptive sweep fingerprint so a pass-2 worker refuses a
/// set derived from a different request.
struct RefinementSet {
  std::uint64_t fingerprint = 0;
  std::size_t grid_size = 0;
  std::vector<std::size_t> indices;  ///< sorted ascending, unique.

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static RefinementSet from_json(const core::Json& j);
};

/// Parse coarse record streams (any disjoint complete cover of the grid,
/// e.g. the K pass-1 shard .xrb files) into the per-point estimates the
/// selection rule consumes. Every record must carry a ground-truth
/// measurement; throws on missing/duplicate indices or coverage gaps.
[[nodiscard]] std::vector<PointEstimate> coarse_estimates_from_records(
    const std::vector<std::string>& paths, std::size_t grid_size);

/// Result of an adaptive run.
struct AdaptiveOutcome {
  /// The hybrid summary — extrema/Pareto/GT aggregates over fine values
  /// at refined points and coarse values elsewhere — produced through
  /// merge_partials (K = 1), so a sharded two-pass run of the same
  /// request merges bitwise identical to it.
  shard::MergedSummary summary;
  /// The refinement set (sorted global indices).
  std::vector<std::size_t> refined;
  /// Per-point hybrid estimates, indexed by global grid index — what the
  /// summary was reduced from; callers (the bench, decision-set checks)
  /// read per-point values here.
  std::vector<PointEstimate> estimates;
  std::size_t coarse_frames = 0, fine_frames = 0;
  double coarse_wall_ms = 0, fine_wall_ms = 0;
};

/// The in-process two-pass driver. Requires request.adaptive engaged and
/// a ground-truth evaluator (throws std::invalid_argument otherwise).
/// Pool sizing and task grain follow request.execution.
class AdaptiveSweep {
 public:
  explicit AdaptiveSweep(SweepRequest request,
                         core::XrPerformanceModel model = {});

  [[nodiscard]] AdaptiveOutcome run() const;

  [[nodiscard]] const SweepRequest& request() const noexcept {
    return request_;
  }

 private:
  SweepRequest request_;
  core::XrPerformanceModel model_;
};

/// Convenience: AdaptiveSweep(request, model).run().
[[nodiscard]] AdaptiveOutcome run_adaptive(
    const SweepRequest& request, const core::XrPerformanceModel& model = {});

}  // namespace xr::runtime
