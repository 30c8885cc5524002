#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/framework.h"
#include "math/rng.h"
#include "runtime/offload_search.h"
#include "testbed/experiments.h"

namespace xrbench {

namespace {

std::vector<double> steps(double lo, double hi, double step) {
  std::vector<double> out;
  const auto n = static_cast<std::size_t>(std::llround((hi - lo) / step));
  for (std::size_t i = 0; i <= n; ++i) out.push_back(lo + double(i) * step);
  return out;
}

xr::runtime::AxisSpec numeric_axis(const char* knob,
                                   std::vector<double> values) {
  xr::runtime::AxisSpec axis;
  axis.knob = knob;
  axis.numbers = std::move(values);
  return axis;
}

/// Distance from values[i] to its nearest neighbour on the axis.
double local_spacing(const std::vector<double>& values, std::size_t i) {
  double spacing = INFINITY;
  if (i > 0) spacing = std::min(spacing, std::abs(values[i] - values[i - 1]));
  if (i + 1 < values.size())
    spacing = std::min(spacing, std::abs(values[i + 1] - values[i]));
  return spacing;
}

}  // namespace

xr::runtime::SweepRequest gt_request(std::uint64_t seed, Size size) {
  xr::testbed::SweepConfig cfg;
  cfg.frame_sizes = steps(300, 700, 25);
  cfg.cpu_clocks_ghz = steps(1.0, 3.0, 0.25);
  xr::runtime::SweepRequest request;
  request.grid = xr::testbed::placement_decision_grid_spec(cfg);
  request.evaluator.kind = xr::runtime::shard::EvaluatorKind::kGroundTruth;
  request.evaluator.seed = seed;
  request.evaluator.frames_per_point = size == Size::kFull ? 200 : 50;
  request.execution.threads = 3;
  return request;
}

xr::core::OffloadSearchSpace serving_space() {
  xr::core::OffloadSearchSpace space;
  space.omega_c_grid.clear();
  for (int i = 0; i <= 32; ++i) space.omega_c_grid.push_back(i / 32.0);
  space.local_cnns = {"MobileNetv2_300_Float", "EfficientNet_Float"};
  space.edge_cnns = {"YoloV3", "YoloV7"};
  space.edge_counts = {1, 2, 4};
  space.codec_bitrates_mbps = {1, 2, 3, 4, 5, 6, 7, 8};
  return space;
}

xr::runtime::PlanIndexSpec index_spec(Size size) {
  xr::runtime::PlanIndexSpec spec;
  spec.scenarios.factory = "remote";
  if (size == Size::kFull) {
    spec.scenarios.axes = {numeric_axis("frame_size", steps(300, 700, 50)),
                           numeric_axis("throughput_mbps", steps(20, 200, 20)),
                           numeric_axis("cpu_ghz", steps(1.0, 3.0, 0.5))};
  } else {
    spec.scenarios.axes = {numeric_axis("frame_size", {300, 500, 700}),
                           numeric_axis("throughput_mbps", {40, 120, 200}),
                           numeric_axis("cpu_ghz", {1.0, 2.0, 3.0})};
  }
  spec.space = serving_space();
  spec.alpha = 0.5;
  return spec;
}

QueryStream make_query_stream(const xr::runtime::PlanIndexSpec& spec,
                              std::uint64_t seed, std::size_t blocks) {
  const auto& axes = spec.scenarios.axes;
  const double gap = spec.max_relative_gap;
  std::vector<std::size_t> beyond_axes;  // axes a computed query may push
  for (std::size_t k = 0; k < axes.size(); ++k)
    if (axes[k].knob == "frame_size" || axes[k].knob == "throughput_mbps")
      beyond_axes.push_back(k);
  if (axes.empty() || beyond_axes.empty() || !(gap > 0.0) || gap >= 1.0)
    throw std::invalid_argument(
        "make_query_stream: needs a frame_size or throughput_mbps axis and "
        "0 < max_relative_gap < 1");

  xr::math::Rng rng = xr::math::Rng(seed).stream("plan_serve.queries");
  const auto pick = [&rng](std::size_t n) {
    return std::size_t(rng.uniform_int(0, std::int64_t(n) - 1));
  };

  QueryStream out;
  out.arity = axes.size();
  const std::size_t n = blocks * kMixBlock;
  out.keys.reserve(n * out.arity);
  out.tiers.reserve(n);
  out.cells.reserve(n);
  out.sampled.reserve(n);

  std::vector<Tier> block;
  block.insert(block.end(), kMixExact, Tier::kExact);
  block.insert(block.end(), kMixSnap, Tier::kSnap);
  block.insert(block.end(), kMixComputed, Tier::kComputed);
  std::vector<std::size_t> coords(axes.size());
  std::vector<double> key(axes.size());
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = block.size(); i-- > 1;) std::swap(block[i], block[pick(i + 1)]);
    for (const Tier tier : block) {
      std::size_t cell = 0;
      for (std::size_t k = 0; k < axes.size(); ++k) {
        coords[k] = pick(axes[k].numbers.size());
        key[k] = axes[k].numbers[coords[k]];
        cell = cell * axes[k].numbers.size() + coords[k];
      }
      if (tier == Tier::kSnap) {
        // One axis always moves off the grid, every other one half the time.
        const std::size_t forced = pick(axes.size());
        for (std::size_t k = 0; k < axes.size(); ++k) {
          if (k != forced && !rng.bernoulli(0.5)) continue;
          const double v = key[k];
          const double reach =
              std::min(0.8 * gap * std::abs(v),
                       0.4 * local_spacing(axes[k].numbers, coords[k]));
          const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
          key[k] = v + sign * rng.uniform(0.05, 1.0) * reach;
        }
      } else if (tier == Tier::kComputed) {
        const std::size_t k = beyond_axes[pick(beyond_axes.size())];
        const double top = *std::max_element(axes[k].numbers.begin(),
                                             axes[k].numbers.end());
        key[k] = top / (1.0 - gap) * rng.uniform(1.05, 1.2);
        cell = xr::runtime::OffloadPlanIndex::kNoCell;
      }
      out.keys.insert(out.keys.end(), key.begin(), key.end());
      out.tiers.push_back(tier);
      out.cells.push_back(cell);
      out.sampled.push_back(tier != Tier::kComputed &&
                            rng.bernoulli(1.0 / double(kSampleOneIn)));
    }
  }
  return out;
}

std::vector<double> context_frame_sizes(std::uint64_t seed,
                                        std::size_t count) {
  std::vector<double> pool = steps(300, 700, 5);
  if (count > pool.size())
    throw std::invalid_argument("context_frame_sizes: too many values");
  xr::math::Rng rng = xr::math::Rng(seed).stream("offload_sweep.frame_sizes");
  for (std::size_t i = 0; i < count; ++i)
    std::swap(pool[i],
              pool[i + std::size_t(rng.uniform_int(
                           0, std::int64_t(pool.size() - i) - 1))]);
  pool.resize(count);
  std::sort(pool.begin(), pool.end());
  return pool;
}

xr::runtime::SweepRequest offload_request(std::uint64_t seed, Size size) {
  auto request = xr::core::offload_search_request(
      xr::core::make_remote_scenario(), serving_space(), 0.5);
  request.grid.axes.insert(
      request.grid.axes.begin(),
      numeric_axis("frame_size",
                   context_frame_sizes(seed, size == Size::kFull ? 8 : 4)));
  request.grid.validate();
  request.execution.format = xr::runtime::shard::RecordFormat::kBinary;
  request.execution.threads = 1;
  return request;
}

}  // namespace xrbench
