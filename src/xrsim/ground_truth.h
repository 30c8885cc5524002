// Ground-truth XR pipeline simulator — the testbed substitute.
//
// The paper validates its analytical models against measurements from a
// physical testbed (§VII). This simulator plays that testbed's role: it
// executes the Fig. 1 pipeline frame by frame with stochastic effects and
// *hidden systematic behaviours the analytical model does not know about*:
//
//   * cache pressure — compute cost grows slightly super-linearly with
//     frame size (the analytical model is linear in s);
//   * DVFS / scheduler bias — mid-range clocks deliver slightly less
//     effective throughput than the Eq. (3) quadratic predicts;
//   * encoder content dependence — H.264 work varies with scene content;
//   * OS preemption — occasional exponential scheduling stalls;
//   * throughput fluctuation — per-frame Wi-Fi rate variation;
//   * real queueing — buffer waits are sampled from the M/M/1 sojourn
//     distribution, not its mean;
//   * measured energy — a Monsoon-style monitor samples the simulated power
//     draw at 0.2 ms (see power_monitor.h) including base power and the
//     thermal-conversion overhead.
//
// Because the predictor and the ground truth are *different models*, the
// error the benches report is genuine model error, as in the paper
// (mean errors ≈ 2.7–5.4% for the proposed framework).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/pipeline.h"
#include "trace/stats_collector.h"
#include "xrsim/power_monitor.h"

namespace xr::xrsim {

/// Stochastic / hidden-effect configuration.
struct GroundTruthConfig {
  std::size_t frames = 200;     ///< frames per run.
  std::uint64_t seed = 42;
  /// Store per-frame FrameRecords in the result. Sweep evaluators only
  /// consume the running latency/energy stats, and on million-point grids
  /// the per-point frame vector is pure allocation churn — set false for a
  /// totals-only run. Never changes the stats: the same frames are
  /// simulated in the same order either way.
  bool record_frames = true;

  // Per-frame noise magnitudes (lognormal sigma unless stated).
  double resource_noise = 0.03;
  double encode_content_noise = 0.05;
  double throughput_noise = 0.08;
  double power_noise = 0.04;
  double preemption_probability = 0.05;   ///< OS stall per frame.
  double preemption_mean_ms = 3.0;

  // Hidden systematic effect strengths (fractions).
  double cache_pressure_strength = 0.08;
  double dvfs_bias_strength = 0.07;
  double encoder_bias_strength = 0.05;
  double power_bias_strength = 0.05;
  /// True thermal-conversion fraction of the device (the analytical model
  /// assumes its PowerModel's thermal_fraction; a mismatch here is part of
  /// the model error).
  double thermal_fraction_true = 0.068;
  double base_power_true_mw = 368.0;

  PowerMonitorConfig monitor{};
};

/// Per-frame measurement record.
struct FrameRecord {
  int frame = 0;
  double frame_generation_ms = 0;
  double volumetric_ms = 0;
  double external_ms = 0;
  double buffer_wait_ms = 0;
  double rendering_ms = 0;        ///< includes buffer wait + result delivery.
  double conversion_or_encode_ms = 0;
  double inference_ms = 0;        ///< local, or remote (decode+infer) time.
  double transmission_ms = 0;
  double handoff_ms = 0;
  double total_latency_ms = 0;
  double energy_mj = 0;           ///< as measured by the power monitor.
};

/// Aggregated run result. `frames` is empty when the run was configured
/// totals-only (GroundTruthConfig::record_frames == false); the running
/// stats are always populated.
struct GroundTruthResult {
  std::vector<FrameRecord> frames;
  trace::RunningStats latency;
  trace::RunningStats energy;

  [[nodiscard]] double mean_latency_ms() const { return latency.mean(); }
  [[nodiscard]] double mean_energy_mj() const { return energy.mean(); }
};

/// The testbed-substitute simulator. Deterministic for a fixed
/// (config.seed, scenario) pair.
class GroundTruthSimulator {
 public:
  explicit GroundTruthSimulator(GroundTruthConfig config = GroundTruthConfig{});

  /// Simulate `config.frames` frames of the scenario and return per-frame
  /// measurements. Validates the scenario, and throws
  /// std::invalid_argument when the frame rate is so low that a frame's
  /// start time overflows. `frames_override`, when
  /// engaged, replaces the configured frame count for this run only, so
  /// sweep runners can trade fidelity for wall time without rebuilding the
  /// simulator; std::nullopt preserves the configured behaviour. The
  /// sentinel is explicit on purpose: an override of 0 is an honored
  /// request for a zero-frame dry run (empty result, zero means), not a
  /// silent fallback to the configured count. Runs that agree on (seed,
  /// scenario, effective frame count) are identical.
  [[nodiscard]] GroundTruthResult run(
      const core::ScenarioConfig& s,
      std::optional<std::size_t> frames_override = std::nullopt) const;

  [[nodiscard]] const GroundTruthConfig& config() const noexcept {
    return config_;
  }

  /// The hidden compute-inflation multiplier (exposed for tests: the
  /// analytical model must NOT use this).
  [[nodiscard]] double hidden_compute_inflation(double frame_size,
                                                double cpu_ghz) const noexcept;
  /// Hidden power-draw multiplier.
  [[nodiscard]] double hidden_power_inflation(double cpu_ghz) const noexcept;

 private:
  GroundTruthConfig config_;
};

}  // namespace xr::xrsim
