#include "runtime/shard/evaluator.h"

#include <cmath>
#include <stdexcept>

#include "math/rng.h"
#include "xrsim/ground_truth.h"

namespace xr::runtime::shard {

const char* evaluator_name(EvaluatorKind k) noexcept {
  return k == EvaluatorKind::kAnalytical ? "analytical" : "ground_truth";
}

EvaluatorKind evaluator_from_name(const std::string& name) {
  if (name == "analytical") return EvaluatorKind::kAnalytical;
  if (name == "ground_truth") return EvaluatorKind::kGroundTruth;
  throw std::invalid_argument("EvaluatorSpec: unknown evaluator '" + name +
                              "' (expected 'analytical' or 'ground_truth')");
}

Json EvaluatorSpec::to_json() const {
  Json j = Json::object();
  j.set("kind", evaluator_name(kind));
  if (kind == EvaluatorKind::kGroundTruth) {
    j.set("seed", format_hex64(seed));
    j.set("frames_per_point", frames_per_point);
    // Emitted only when engaged so single-pass documents — and their sweep
    // fingerprints — are byte-identical to the pre-adaptive era.
    if (pass != 0) j.set("pass", pass);
  }
  return j;
}

EvaluatorSpec EvaluatorSpec::from_json(const Json& j) {
  core::walk_strict(j, "evaluator", [](const std::string& key, const auto&) {
    return key == "kind" || key == "seed" || key == "frames_per_point" ||
           key == "pass";
  });
  EvaluatorSpec out;
  out.kind = evaluator_from_name(j.at("kind").as_string());
  if (out.kind == EvaluatorKind::kGroundTruth) {
    if (const Json* s = j.find("seed")) out.seed = parse_hex64(s->as_string());
    if (const Json* f = j.find("frames_per_point"))
      out.frames_per_point = f->as_size();
    if (const Json* p = j.find("pass")) out.pass = p->as_size();
    if (out.frames_per_point == 0)
      throw std::invalid_argument(
          "EvaluatorSpec: frames_per_point must be >= 1 (a zero-frame "
          "ground-truth sweep measures nothing)");
  }
  return out;
}

std::uint64_t point_seed(std::uint64_t sweep_seed, std::size_t global_index,
                         std::size_t pass) noexcept {
  // Golden-ratio offset keeps index 0 distinct from the raw sweep seed;
  // SplitMix64 scrambles the low-entropy index into a full 64-bit seed.
  // The pass term adds 0 for pass 0, so single-pass sweeps reproduce the
  // historical derivation bit for bit.
  std::uint64_t state =
      sweep_seed + 0x9E3779B97F4A7C15ull * (std::uint64_t(global_index) + 1) +
      0x94D049BB133111EBull * std::uint64_t(pass);
  return math::splitmix64(state);
}

EvaluatedPoint evaluate_point(const EvaluatorSpec& spec,
                              const core::XrPerformanceModel& model,
                              const core::ScenarioConfig& scenario,
                              std::size_t global_index) {
  EvaluatedPoint out;
  out.report = model.evaluate(scenario);
  if (spec.kind != EvaluatorKind::kGroundTruth) return out;
  if (spec.frames_per_point == 0)
    throw std::invalid_argument(
        "evaluate_point: ground-truth evaluator needs frames_per_point >= 1");

  xrsim::GroundTruthConfig cfg;
  cfg.seed = point_seed(spec.seed, global_index, spec.pass);
  cfg.frames = spec.frames_per_point;
  // Sweep evaluators only consume the running means; skipping the
  // per-frame records avoids one vector churn per grid point.
  cfg.record_frames = false;
  const xrsim::GroundTruthSimulator sim(cfg);
  const auto gt = sim.run(scenario);

  GtMeasurement m;
  m.seed = cfg.seed;
  m.frames = spec.frames_per_point;
  m.mean_latency_ms = gt.mean_latency_ms();
  m.mean_energy_mj = gt.mean_energy_mj();
  m.latency_error_pct = 100.0 *
                        std::fabs(out.report.latency.total - m.mean_latency_ms) /
                        m.mean_latency_ms;
  m.energy_error_pct = 100.0 *
                       std::fabs(out.report.energy.total - m.mean_energy_mj) /
                       m.mean_energy_mj;
  out.gt = m;
  return out;
}

}  // namespace xr::runtime::shard
