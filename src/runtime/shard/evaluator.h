// Pluggable per-point evaluators for the shard worker.
//
// PR 2's worker could only run the cheap analytical model, so the grids
// that actually dominate wall time — the Fig. 4/5 validation sweeps, where
// every point runs a GroundTruthSimulator episode — still ran
// monolithically. EvaluatorSpec closes that gap: a small serializable
// document (carried inside WorkerSpec and covered by the sweep
// fingerprint) that selects what "evaluate grid point i" means:
//
//   {"kind": "analytical"}
//   {"kind": "ground_truth", "seed": "000000000000002a",
//    "frames_per_point": 200}
//
// Ground-truth mode runs the testbed-substitute simulator at every point
// *and* the analytical prediction, and records both plus the model error —
// the paper's §VII validation quantity — in the record stream.
//
// Determinism contract: each point's simulator seed derives from the
// sweep seed, the point's *global* grid index, and the fidelity pass
// (point_seed), never from shard-local state. Records are therefore
// bitwise independent of shard count, strategy, thread count, and resume
// position — the property the GT merge law and
// scripts/sweep_gt_sharded.sh assert. Pass 0 is the ordinary single-pass
// sweep; the adaptive-fidelity driver (runtime/adaptive.h) runs its
// coarse leg as pass 1 and its refinement leg as pass 2, so the two legs'
// measurements are independent draws that still obey the same contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/framework.h"
#include "runtime/shard/jsonio.h"

namespace xr::runtime::shard {

enum class EvaluatorKind { kAnalytical, kGroundTruth };

[[nodiscard]] const char* evaluator_name(EvaluatorKind k) noexcept;
/// Inverse of evaluator_name; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] EvaluatorKind evaluator_from_name(const std::string& name);

/// What the worker runs at each grid point.
struct EvaluatorSpec {
  EvaluatorKind kind = EvaluatorKind::kAnalytical;
  /// Sweep-level seed (ground truth only); each point's simulator seed is
  /// point_seed(seed, global_index).
  std::uint64_t seed = 42;
  /// Simulated frames averaged per point (ground truth only) — the
  /// fidelity/wall-time knob the adaptive-fidelity driver
  /// (runtime/adaptive.h) turns: its coarse leg runs the whole grid at
  /// AdaptiveSpec::coarse_frames and its refinement leg re-runs the
  /// boundary points at fine_frames. Must be >= 1: a zero-frame sweep
  /// measures nothing (from_json rejects it).
  std::size_t frames_per_point = 200;
  /// Fidelity pass this evaluator belongs to: 0 for ordinary single-pass
  /// sweeps (the historical seed derivation, byte-compatible with every
  /// existing stream), 1 for an adaptive coarse leg, 2 for the refinement
  /// leg. Folded into every point's simulator seed (see point_seed) and
  /// serialized (hence fingerprinted) only when nonzero.
  std::size_t pass = 0;

  [[nodiscard]] bool is_ground_truth() const noexcept {
    return kind == EvaluatorKind::kGroundTruth;
  }

  [[nodiscard]] Json to_json() const;
  /// Strict inverse of to_json: an unknown key, or a ground-truth key
  /// (seed, frames_per_point, pass) on an analytical evaluator, throws
  /// std::invalid_argument naming it.
  [[nodiscard]] static EvaluatorSpec from_json(const Json& j);
};

/// The simulator seed for one grid point: a SplitMix64 mix of the sweep
/// seed, the global index, and the fidelity pass. Pure — independent of
/// shard layout. Pass 0 reproduces the historical two-argument derivation
/// exactly, so single-pass sweeps keep their committed values.
[[nodiscard]] std::uint64_t point_seed(std::uint64_t sweep_seed,
                                       std::size_t global_index,
                                       std::size_t pass = 0) noexcept;

/// One point's ground-truth measurement plus its model error.
struct GtMeasurement {
  std::uint64_t seed = 0;        ///< point_seed actually used.
  std::size_t frames = 0;        ///< frames averaged.
  double mean_latency_ms = 0;    ///< measured end-to-end latency.
  double mean_energy_mj = 0;     ///< measured energy.
  /// |analytical - measured| / measured, in percent (the §VII quantity).
  double latency_error_pct = 0;
  double energy_error_pct = 0;
};

/// One evaluated grid point: the analytical prediction always, the GT
/// measurement when the evaluator is ground_truth.
struct EvaluatedPoint {
  core::PerformanceReport report;
  std::optional<GtMeasurement> gt;
};

/// Evaluate one grid point under the spec. The single evaluation path
/// shared by run_worker and the in-process testbed runners, so both
/// provably compute identical records. Throws std::invalid_argument when a
/// ground-truth spec has frames_per_point == 0.
[[nodiscard]] EvaluatedPoint evaluate_point(const EvaluatorSpec& spec,
                                            const core::XrPerformanceModel& model,
                                            const core::ScenarioConfig& scenario,
                                            std::size_t global_index);

}  // namespace xr::runtime::shard
