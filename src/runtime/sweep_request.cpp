#include "runtime/sweep_request.h"

#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/adaptive.h"
#include "runtime/batch_evaluator.h"
#include "runtime/decision_batch.h"
#include "runtime/shard/streaming_sink.h"

namespace xr::runtime {

namespace {

constexpr const char* kRequestSchema = "xr.sweep.request.v1";

}  // namespace

const char* reduction_name(ReductionKind k) noexcept {
  return k == ReductionKind::kSummary ? "summary" : "offload_plan";
}

ReductionKind reduction_from_name(const std::string& name) {
  if (name == "summary") return ReductionKind::kSummary;
  if (name == "offload_plan") return ReductionKind::kOffloadPlan;
  throw std::invalid_argument("ReductionSpec: unknown kind '" + name + "'");
}

core::Json ReductionSpec::to_json() const {
  core::Json j = core::Json::object();
  j.set("kind", reduction_name(kind));
  if (kind == ReductionKind::kOffloadPlan) j.set("alpha", alpha);
  return j;
}

ReductionSpec ReductionSpec::from_json(const core::Json& j) {
  core::walk_strict(j, "reduction", [](const std::string& key, const auto&) {
    return key == "kind" || key == "alpha";
  });
  ReductionSpec out;
  out.kind = reduction_from_name(j.at("kind").as_string());
  if (const core::Json* a = j.find("alpha")) {
    if (out.kind == ReductionKind::kSummary)
      throw std::invalid_argument(
          "reduction: field 'alpha' does not apply to kind 'summary'");
    out.alpha = a->as_double();
  }
  if (out.alpha < 0 || out.alpha > 1)
    throw std::invalid_argument("ReductionSpec: alpha must be in [0, 1]");
  return out;
}

core::Json ExecutionSpec::to_json() const {
  core::Json j = core::Json::object();
  j.set("threads", threads);
  j.set("chunk_records", chunk_records);
  if (grain != 0) j.set("grain", grain);
  return j;
}

ExecutionSpec ExecutionSpec::from_json(const core::Json& j) {
  ExecutionSpec out;
  core::walk_strict(j, "execution", [&](const std::string& key,
                                        const core::Json& value) {
    if (key == "threads") out.threads = value.as_size();
    else if (key == "chunk_records") out.chunk_records = value.as_size();
    else if (key == "grain") out.grain = value.as_size();
    else if (key == "format")
      out.format = shard::format_from_name(value.as_string());
    else return false;
    return true;
  });
  // 0 means "flush every record", expressed as chunks of 1, so the sink's
  // flush cadence and the worker's chunk loop read one value.
  if (out.chunk_records == 0) out.chunk_records = 1;
  return out;
}

core::Json AdaptiveSpec::to_json() const {
  core::Json j = core::Json::object();
  j.set("coarse_frames", coarse_frames);
  j.set("fine_frames", fine_frames);
  j.set("band_fraction", band_fraction);
  return j;
}

void AdaptiveSpec::validate() const {
  if (coarse_frames == 0)
    throw std::invalid_argument(
        "AdaptiveSpec: adaptive.coarse_frames must be >= 1 (a zero-frame "
        "coarse pass measures nothing)");
  if (coarse_frames >= fine_frames)
    throw std::invalid_argument(
        "AdaptiveSpec: adaptive.coarse_frames (" +
        std::to_string(coarse_frames) +
        ") must be < adaptive.fine_frames (" + std::to_string(fine_frames) +
        ") — a coarse pass at or above the target fidelity saves nothing");
  if (!(band_fraction >= 0))
    throw std::invalid_argument(
        "AdaptiveSpec: adaptive.band_fraction must be >= 0");
}

AdaptiveSpec AdaptiveSpec::from_json(const core::Json& j) {
  AdaptiveSpec out;
  core::walk_strict(j, "adaptive", [&](const std::string& key,
                                       const core::Json& value) {
    if (key == "coarse_frames") out.coarse_frames = value.as_size();
    else if (key == "fine_frames") out.fine_frames = value.as_size();
    else if (key == "band_fraction") out.band_fraction = value.as_double();
    else return false;
    return true;
  });
  out.validate();
  return out;
}

std::uint64_t SweepRequest::fingerprint() const {
  if (adaptive)
    return adaptive_fingerprint(grid, evaluator, *adaptive);
  return shard::grid_fingerprint(grid, evaluator);
}

core::Json SweepRequest::to_json() const {
  core::Json j = core::Json::object();
  j.set("schema", kRequestSchema);
  j.set("grid", grid.to_json());
  j.set("evaluator", evaluator.to_json());
  j.set("reduction", reduction.to_json());
  if (adaptive) j.set("adaptive", adaptive->to_json());
  j.set("execution", execution.to_json());
  return j;
}

SweepRequest SweepRequest::from_json(const core::Json& j) {
  // Every block refuses keys it does not know, naming block and key: a
  // misspelled "evaluater" must not quietly run the analytical default.
  core::walk_strict(j, "sweep request", [](const std::string& key,
                                           const auto&) {
    return key == "schema" || key == "grid" || key == "evaluator" ||
           key == "reduction" || key == "adaptive" || key == "execution";
  });
  if (j.at("schema").as_string() != kRequestSchema)
    throw std::invalid_argument("SweepRequest: unknown schema '" +
                                j.at("schema").as_string() + "'");
  SweepRequest out;
  out.grid = GridSpec::from_json(j.at("grid"));
  if (const core::Json* e = j.find("evaluator"))
    out.evaluator = shard::EvaluatorSpec::from_json(*e);
  if (const core::Json* r = j.find("reduction"))
    out.reduction = ReductionSpec::from_json(*r);
  if (const core::Json* a = j.find("adaptive"))
    out.adaptive = AdaptiveSpec::from_json(*a);
  if (const core::Json* x = j.find("execution"))
    out.execution = ExecutionSpec::from_json(*x);
  // Detectable from the document alone, so refuse here — before any worker
  // burns a full (possibly ground-truth, possibly sharded) sweep on a
  // request whose reduction must reject its summary at merge time.
  if (out.reduction.kind == ReductionKind::kOffloadPlan &&
      out.evaluator.is_ground_truth())
    throw std::invalid_argument(
        "SweepRequest: the offload_plan reduction requires the analytical "
        "evaluator (ground-truth measurements cannot be re-derived per "
        "decision)");
  if (out.adaptive && !out.evaluator.is_ground_truth())
    throw std::invalid_argument(
        "SweepRequest: the adaptive block requires the ground_truth "
        "evaluator (the analytical model has no fidelity knob to trade "
        "against wall time)");
  return out;
}

shard::MergedSummary run_request(const SweepRequest& request,
                                 const core::XrPerformanceModel& model) {
  static obs::Counter runs("runtime.request.runs");
  static obs::Counter adaptive_runs("runtime.request.adaptive_runs");
  static obs::Counter batched_runs("runtime.request.batched_runs");
  static obs::Counter scalar_runs("runtime.request.scalar_runs");
  const obs::Span span("request.run");
  runs.add();

  // Adaptive requests have their own two-pass driver; its result obeys the
  // same merge law (K = 1 case), so callers see one entry point.
  if (request.adaptive) {
    adaptive_runs.add();
    const obs::Span adaptive_span("request.adaptive");
    return run_adaptive(request, model).summary;
  }

  // Analytical requests take the SoA serving kernel when it is enabled and
  // maps every axis — bitwise-identical to the scalar fold below (the
  // standing gate of tests/runtime/test_decision_batch.cpp), just without
  // re-walking the full model per candidate.
  {
    const obs::Span batched_span("request.batched_kernel");
    if (const auto batched = try_run_request_batched(request, model)) {
      batched_runs.add();
      return *batched;
    }
  }

  scalar_runs.add();
  const ScenarioGrid grid = request.grid.build();
  const BatchEvaluator engine(
      model, BatchOptions{request.execution.threads, request.execution.grain});

  // Evaluate every point through the exact per-point code path the sharded
  // workers run (evaluate_point, seeded from the global index), then fold
  // the same single-shard reduction a K = 1 worker would stream.
  std::vector<shard::EvaluatedPoint> points;
  {
    const obs::Span map_span("request.map");
    points = engine.map(grid.size(), [&](std::size_t i) {
      return shard::evaluate_point(request.evaluator, model, grid.at(i), i);
    });
  }

  const obs::Span reduce_span("request.reduce");
  const shard::ShardIdentity id{0, 1, shard::ShardStrategy::kRange,
                                grid.size(), request.fingerprint()};
  shard::PartialReduction partial(id, request.evaluator.is_ground_truth());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const shard::GtMeasurement* gt =
        points[i].gt ? &*points[i].gt : nullptr;
    if (gt)
      partial.add(i, gt->mean_latency_ms, gt->mean_energy_mj, gt);
    else
      partial.add(i, points[i].report.latency.total,
                  points[i].report.energy.total);
  }
  partial.threads = engine.threads();
  return shard::merge_partials({partial});
}

}  // namespace xr::runtime
