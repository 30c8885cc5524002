#include "runtime/adaptive.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>

#include "runtime/batch_evaluator.h"
#include "runtime/shard/streaming_sink.h"

namespace xr::runtime {

namespace {

constexpr const char* kRefineSchema = "xr.sweep.refine.v1";

/// Per-axis point counts of a grid spec (1-sized grid when there are no
/// axes), plus the total size.
std::vector<std::size_t> axis_sizes(const GridSpec& grid,
                                    std::size_t* total) {
  std::vector<std::size_t> sizes;
  sizes.reserve(grid.axes.size());
  std::size_t n = 1;
  for (const auto& axis : grid.axes) {
    const std::size_t s =
        axis.numbers.empty() ? axis.strings.size() : axis.numbers.size();
    sizes.push_back(s);
    n *= s;
  }
  if (total) *total = n;
  return sizes;
}

}  // namespace

shard::EvaluatorSpec coarse_evaluator(const shard::EvaluatorSpec& base,
                                      const AdaptiveSpec& adaptive) {
  shard::EvaluatorSpec ev = base;
  ev.frames_per_point = adaptive.coarse_frames;
  ev.pass = 1;
  return ev;
}

shard::EvaluatorSpec fine_evaluator(const shard::EvaluatorSpec& base,
                                    const AdaptiveSpec& adaptive) {
  shard::EvaluatorSpec ev = base;
  ev.frames_per_point = adaptive.fine_frames;
  ev.pass = 2;
  return ev;
}

std::uint64_t adaptive_fingerprint(const GridSpec& grid,
                                   const shard::EvaluatorSpec& evaluator,
                                   const AdaptiveSpec& adaptive) {
  return shard::fingerprint_chain(shard::grid_fingerprint(grid, evaluator),
                                  adaptive.to_json().dump());
}

std::vector<std::size_t> select_refinement(
    const GridSpec& grid, const std::vector<PointEstimate>& coarse,
    const AdaptiveSpec& adaptive) {
  adaptive.validate();
  std::size_t n = 0;
  const std::vector<std::size_t> sizes = axis_sizes(grid, &n);
  if (coarse.size() != n)
    throw std::invalid_argument(
        "select_refinement: got " + std::to_string(coarse.size()) +
        " coarse estimates for a grid of " + std::to_string(n) + " points");
  if (n == 0) return {};

  std::vector<char> selected(n, 0);

  // Band rule: anything whose coarse latency or energy sits within the
  // band of the incumbent argmin could own the fine-fidelity argmin.
  double min_lat = coarse[0].latency_ms, min_en = coarse[0].energy_mj;
  for (const auto& p : coarse) {
    min_lat = std::min(min_lat, p.latency_ms);
    min_en = std::min(min_en, p.energy_mj);
  }
  const double lat_edge = min_lat * (1.0 + adaptive.band_fraction);
  const double en_edge = min_en * (1.0 + adaptive.band_fraction);
  for (std::size_t i = 0; i < n; ++i)
    if (coarse[i].latency_ms <= lat_edge || coarse[i].energy_mj <= en_edge)
      selected[i] = 1;

  // Boundary-flip rule: refine every point of the reduced cells whose
  // latency-optimal placement disagrees with a neighbor's.
  std::size_t placement_axis = sizes.size();
  for (std::size_t k = 0; k < grid.axes.size(); ++k)
    if (grid.axes[k].knob == "placement" && sizes[k] >= 2) {
      placement_axis = k;
      break;
    }
  if (placement_axis < sizes.size()) {
    // Row-major strides, first axis outermost (the grid enumeration order).
    std::vector<std::size_t> strides(sizes.size(), 1);
    for (std::size_t k = sizes.size(); k-- > 1;)
      strides[k - 1] = strides[k] * sizes[k];
    const std::size_t p = placement_axis;

    const auto is_rep = [&](std::size_t i) {
      return (i / strides[p]) % sizes[p] == 0;
    };
    // One pass precomputes the latency-optimal placement position of each
    // reduced cell (keyed by its representative: placement coordinate 0).
    std::vector<std::size_t> decision(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (!is_rep(i)) continue;
      for (std::size_t j = 1; j < sizes[p]; ++j)
        if (coarse[i + j * strides[p]].latency_ms <
            coarse[i + decision[i] * strides[p]].latency_ms)
          decision[i] = j;
    }
    const auto mark_cell = [&](std::size_t i) {
      for (std::size_t j = 0; j < sizes[p]; ++j)
        selected[i + j * strides[p]] = 1;
    };

    for (std::size_t i = 0; i < n; ++i) {
      if (!is_rep(i)) continue;  // not a cell rep
      for (std::size_t a = 0; a < sizes.size(); ++a) {
        if (a == p) continue;
        if ((i / strides[a]) % sizes[a] + 1 >= sizes[a]) continue;
        const std::size_t neighbor = i + strides[a];
        if (decision[i] != decision[neighbor]) {
          mark_cell(i);
          mark_cell(neighbor);
        }
      }
    }
  }

  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n; ++i)
    if (selected[i]) out.push_back(i);
  return out;
}

core::Json RefinementSet::to_json() const {
  core::Json j = core::Json::object();
  j.set("schema", kRefineSchema);
  j.set("fingerprint", shard::format_hex64(fingerprint));
  j.set("grid_size", grid_size);
  core::Json idx = core::Json::array();
  for (std::size_t i : indices) idx.push_back(i);
  j.set("indices", std::move(idx));
  return j;
}

RefinementSet RefinementSet::from_json(const core::Json& j) {
  if (j.at("schema").as_string() != kRefineSchema)
    throw std::invalid_argument("RefinementSet: unknown schema '" +
                                j.at("schema").as_string() + "'");
  RefinementSet out;
  out.fingerprint = shard::parse_hex64(j.at("fingerprint").as_string());
  out.grid_size = j.at("grid_size").as_size();
  for (const core::Json& v : j.at("indices").as_array())
    out.indices.push_back(v.as_size());
  for (std::size_t k = 0; k < out.indices.size(); ++k) {
    if (out.indices[k] >= out.grid_size)
      throw std::invalid_argument(
          "RefinementSet: index out of range for the grid");
    if (k > 0 && out.indices[k] <= out.indices[k - 1])
      throw std::invalid_argument(
          "RefinementSet: indices must be sorted ascending and unique");
  }
  return out;
}

std::vector<PointEstimate> coarse_estimates_from_records(
    const std::vector<std::string>& paths, std::size_t grid_size) {
  std::vector<PointEstimate> out(grid_size);
  std::vector<char> seen(grid_size, 0);
  std::size_t covered = 0;
  for (const auto& path : paths) {
    shard::RecordSource source(path);
    shard::ParsedRecord r;
    while (source.next(r)) {
      if (!r.gt)
        throw std::invalid_argument(
            "coarse_estimates_from_records: record without a ground-truth "
            "measurement in " + path);
      if (r.index >= grid_size)
        throw std::invalid_argument(
            "coarse_estimates_from_records: index out of range in " + path);
      if (seen[r.index])
        throw std::invalid_argument(
            "coarse_estimates_from_records: duplicate record for index " +
            std::to_string(r.index) + " in " + path);
      seen[r.index] = 1;
      out[r.index] = PointEstimate{r.gt->mean_latency_ms,
                                   r.gt->mean_energy_mj};
      ++covered;
    }
  }
  if (covered != grid_size)
    throw std::invalid_argument(
        "coarse_estimates_from_records: coarse records cover " +
        std::to_string(covered) + " of " + std::to_string(grid_size) +
        " grid points — the coarse pass must be complete before selection");
  return out;
}

AdaptiveSweep::AdaptiveSweep(SweepRequest request,
                             core::XrPerformanceModel model)
    : request_(std::move(request)), model_(std::move(model)) {
  if (!request_.adaptive)
    throw std::invalid_argument(
        "AdaptiveSweep: the request has no adaptive block");
  if (!request_.evaluator.is_ground_truth())
    throw std::invalid_argument(
        "AdaptiveSweep: adaptive fidelity requires the ground_truth "
        "evaluator");
  request_.adaptive->validate();
}

AdaptiveOutcome AdaptiveSweep::run() const {
  const AdaptiveSpec& adaptive = *request_.adaptive;
  const ScenarioGrid grid = request_.grid.build();
  const std::size_t n = grid.size();
  const BatchEvaluator engine(
      model_,
      BatchOptions{request_.execution.threads, request_.execution.grain});
  const shard::EvaluatorSpec coarse_ev =
      coarse_evaluator(request_.evaluator, adaptive);
  const shard::EvaluatorSpec fine_ev =
      fine_evaluator(request_.evaluator, adaptive);

  AdaptiveOutcome out;
  out.coarse_frames = adaptive.coarse_frames;
  out.fine_frames = adaptive.fine_frames;

  // Pass 1: the whole grid, cheap.
  const auto t0 = std::chrono::steady_clock::now();
  const auto coarse_points = engine.map(n, [&](std::size_t i) {
    return shard::evaluate_point(coarse_ev, model_, grid.at(i), i);
  });
  const auto t1 = std::chrono::steady_clock::now();
  out.coarse_wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  out.estimates.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    out.estimates[i] = PointEstimate{coarse_points[i].gt->mean_latency_ms,
                                     coarse_points[i].gt->mean_energy_mj};

  // Selection: pure function of the coarse measurements.
  out.refined = select_refinement(request_.grid, out.estimates, adaptive);

  // Pass 2: only the candidates, at target fidelity.
  const auto t2 = std::chrono::steady_clock::now();
  const auto fine_points = engine.map(out.refined.size(), [&](std::size_t j) {
    const std::size_t g = out.refined[j];
    return shard::evaluate_point(fine_ev, model_, grid.at(g), g);
  });
  const auto t3 = std::chrono::steady_clock::now();
  out.fine_wall_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();

  // Fold the hybrid single-shard reduction and run it through the merge
  // law (K = 1), exactly as run_request does — so K sharded hybrid
  // partials of the same request merge bitwise identical to this summary.
  const shard::ShardIdentity id{
      0, 1, shard::ShardStrategy::kRange, n,
      adaptive_fingerprint(request_.grid, request_.evaluator, adaptive)};
  shard::PartialReduction partial(id, /*ground_truth=*/true);
  std::size_t r = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const shard::EvaluatedPoint& point =
        (r < out.refined.size() && out.refined[r] == i) ? fine_points[r++]
                                                        : coarse_points[i];
    partial.add(i, point.gt->mean_latency_ms, point.gt->mean_energy_mj,
                &*point.gt);
    out.estimates[i] =
        PointEstimate{point.gt->mean_latency_ms, point.gt->mean_energy_mj};
  }
  partial.wall_ms = out.coarse_wall_ms + out.fine_wall_ms;
  partial.threads = engine.threads();
  out.summary = shard::merge_partials({partial});
  return out;
}

AdaptiveOutcome run_adaptive(const SweepRequest& request,
                             const core::XrPerformanceModel& model) {
  return AdaptiveSweep(request, model).run();
}

}  // namespace xr::runtime
