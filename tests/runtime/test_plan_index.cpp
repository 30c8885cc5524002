// OffloadPlanIndex: precompute plans over a scenario grid, then serve by
// lookup. The contracts under test: the JSON round trip is bitwise (dump ==
// re-dump), an exact hit is answered WITHOUT consulting the model (proved
// by the submodel lookup counter staying flat), nearest-cell serving snaps
// deterministically within the gap ceiling, a genuine miss recomputes the
// same plan a direct search produces byte for byte, and malformed specs /
// index documents are rejected with the offending field named.
#include "runtime/plan_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/optimizer.h"
#include "core/serialize.h"
#include "devices/memo.h"
#include "obs/registry.h"
#include "runtime/offload_search.h"

namespace xr::runtime {
namespace {

using core::Json;

AxisSpec numeric_axis(const char* knob, std::vector<double> values) {
  AxisSpec axis;
  axis.knob = knob;
  axis.numbers = std::move(values);
  return axis;
}

/// 3 frame sizes × 2 link rates, with a deliberately tiny search space so
/// build() stays fast (4 candidates per cell).
PlanIndexSpec small_spec() {
  PlanIndexSpec spec;
  spec.scenarios.factory = "remote";
  spec.scenarios.axes = {numeric_axis("frame_size", {300, 500, 700}),
                         numeric_axis("throughput_mbps", {50, 100})};
  spec.space.omega_c_grid = {0.0, 1.0};
  spec.space.local_cnns = {"MobileNetv2_300_Float"};
  spec.space.edge_cnns = {"YoloV3"};
  spec.space.edge_counts = {1};
  spec.space.codec_bitrates_mbps = {2.0};
  return spec;
}

void expect_throw_contains(const std::function<void()>& f,
                           const std::string& needle) {
  try {
    f();
    FAIL() << "expected std::invalid_argument containing '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(PlanIndex, BuildCoversTheGridRowMajor) {
  const auto index = OffloadPlanIndex::build(small_spec());
  ASSERT_EQ(index.size(), 6u);
  // Row-major, axis 0 slowest: cell 3 = (frame 500, throughput 100).
  EXPECT_EQ(index.exact_cell({500, 100}).value(), 3u);
  EXPECT_EQ(index.exact_cell({300, 50}).value(), 0u);
  EXPECT_EQ(index.exact_cell({700, 100}).value(), 5u);
  EXPECT_FALSE(index.exact_cell({400, 50}).has_value());
  for (std::size_t cell = 0; cell < index.size(); ++cell)
    EXPECT_GE(index.plan_at(cell).candidates_evaluated, 1u) << cell;
}

TEST(PlanIndex, JsonRoundTripIsBitwise) {
  const auto index = OffloadPlanIndex::build(small_spec());
  const std::string dump = index.to_json().dump();
  const auto reloaded = OffloadPlanIndex::from_json(Json::parse(dump));
  EXPECT_EQ(reloaded.to_json().dump(), dump);
  // The reloaded index serves the same exact tier.
  EXPECT_EQ(reloaded.exact_cell({500, 100}).value(), 3u);
}

// The headline serving property: an exact hit never consults the model —
// no CNN-table or codec-curve lookup fires anywhere under serve().
TEST(PlanIndex, ExactHitServesWithoutModelLookups) {
  auto index = OffloadPlanIndex::build(small_spec());
  const std::uint64_t before = devices::submodel_lookup_count();
  const auto result = index.serve({500, 100});
  EXPECT_EQ(devices::submodel_lookup_count(), before);
  EXPECT_EQ(result.source, PlanSource::kExactHit);
  EXPECT_EQ(result.cell, 3u);
  EXPECT_EQ(result.plan.to_json().dump(),
            index.plan_at(3).to_json().dump());
  EXPECT_EQ(index.counters().exact_hits, 1u);
  EXPECT_EQ(index.counters().nearest_hits, 0u);
  EXPECT_EQ(index.counters().computed, 0u);
}

TEST(PlanIndex, NearestHitSnapsWithinGapAndBreaksTiesLow) {
  auto index = OffloadPlanIndex::build(small_spec());
  // 450 is nearer to 500; gap = 50/500 = 0.1 <= 0.25.
  {
    const auto nearest = index.nearest_cell({450, 100});
    EXPECT_EQ(nearest.cell, 3u);
    EXPECT_DOUBLE_EQ(nearest.worst_gap, 50.0 / 500.0);
    const auto result = index.serve({450, 100});
    EXPECT_EQ(result.source, PlanSource::kNearestHit);
    EXPECT_EQ(result.cell, 3u);
  }
  // 400 is the 300/500 midpoint: the strict < keeps the LOWER value index,
  // so the snap is deterministic (frame 300, cell 1 with throughput 100).
  {
    const auto nearest = index.nearest_cell({400, 100});
    EXPECT_EQ(nearest.cell, 1u);
    EXPECT_DOUBLE_EQ(nearest.worst_gap, 100.0 / 400.0);
  }
  EXPECT_EQ(index.counters().nearest_hits, 1u);
}

TEST(PlanIndex, MissRecomputesTheExactSearchPlan) {
  auto index = OffloadPlanIndex::build(small_spec());
  // frame 5000 is 6.1x off the farthest grid value — far outside the gap.
  const auto result = index.serve({5000, 50});
  EXPECT_EQ(result.source, PlanSource::kComputed);
  EXPECT_EQ(result.cell, OffloadPlanIndex::kNoCell);
  EXPECT_EQ(index.counters().computed, 1u);

  // Byte-identical to a direct search over the same materialized scenario.
  const PlanIndexSpec spec = small_spec();
  core::ScenarioConfig scenario = spec.scenarios.base_config();
  axis_from_spec(numeric_axis("frame_size", {5000}))
      .points.front()
      .apply(scenario);
  axis_from_spec(numeric_axis("throughput_mbps", {50}))
      .points.front()
      .apply(scenario);
  const auto direct = core::plan_offload(
      core::offload_search_request(scenario, spec.space, spec.alpha));
  EXPECT_EQ(result.plan.to_json().dump(), direct.to_json().dump());
}

TEST(PlanIndex, ZeroGapServesOnlyExactCoordinates) {
  auto spec = small_spec();
  spec.max_relative_gap = 0.0;
  auto index = OffloadPlanIndex::build(spec);
  EXPECT_EQ(index.serve({500, 100}).source, PlanSource::kExactHit);
  EXPECT_EQ(index.serve({499, 100}).source, PlanSource::kComputed);
}

TEST(PlanIndex, SpecValidationNamesTheOffendingField) {
  {
    auto spec = small_spec();
    spec.scenarios.axes[0].numbers = {300, 500, 300};
    expect_throw_contains([&] { spec.validate(); },
                          "axis 'frame_size': duplicate value 300");
  }
  {
    auto spec = small_spec();
    spec.scenarios.axes[1].numbers = {50, std::nan("")};
    expect_throw_contains([&] { spec.validate(); },
                          "axis 'throughput_mbps': values must be finite");
  }
  {
    auto spec = small_spec();
    AxisSpec placement;
    placement.knob = "placement";
    placement.strings = {"local", "remote"};
    spec.scenarios.axes.push_back(placement);
    expect_throw_contains([&] { spec.validate(); },
                          "axis 'placement': index axes must be numeric");
  }
  {
    auto spec = small_spec();
    spec.alpha = 1.5;
    expect_throw_contains([&] { spec.validate(); },
                          "alpha must be in [0, 1]");
  }
  {
    auto spec = small_spec();
    spec.max_relative_gap = -0.1;
    expect_throw_contains([&] { spec.validate(); },
                          "max_relative_gap must be finite and >= 0");
  }
}

TEST(PlanIndex, FromJsonRejectsWrongPlanCount) {
  const auto index = OffloadPlanIndex::build(small_spec());
  const Json full = index.to_json();
  Json trimmed = Json::object();
  trimmed.set("schema", full.at("schema").as_string());
  trimmed.set("spec", full.at("spec"));
  Json plans = Json::array();
  const auto& all = full.at("plans").as_array();
  for (std::size_t i = 0; i + 1 < all.size(); ++i) plans.push_back(all[i]);
  trimmed.set("plans", std::move(plans));
  expect_throw_contains(
      [&] { (void)OffloadPlanIndex::from_json(trimmed); },
      "plans has 5 entries but the scenario grid has 6 cells");
}

// ---- build == one full search per cell ---------------------------------

/// 5 ω_c × 2 local CNNs × 2 edge CNNs × 3 edge counts × 3 bitrates: 360
/// candidates a cell, small enough to run a full search per cell.
core::OffloadSearchSpace reduced_space() {
  core::OffloadSearchSpace space;
  space.omega_c_grid = {0.0, 0.25, 0.5, 0.75, 1.0};
  space.local_cnns = {"MobileNetv2_300_Float", "EfficientNet_Float"};
  space.edge_cnns = {"YoloV3", "YoloV7"};
  space.edge_counts = {1, 2, 4};
  space.codec_bitrates_mbps = {2.0, 4.0, 8.0};
  return space;
}

PlanIndexSpec index_spec(const char* factory, std::vector<AxisSpec> axes,
                         const core::OffloadSearchSpace& space) {
  PlanIndexSpec spec;
  spec.scenarios.factory = factory;
  spec.scenarios.axes = std::move(axes);
  spec.space = space;
  spec.alpha = 0.5;
  return spec;
}

/// One full plan_offload search per cell, in cell order: the reference
/// every index build must reproduce byte for byte.
std::vector<std::string> per_cell_plans(const PlanIndexSpec& spec) {
  spec.validate();
  const ScenarioGrid grid = spec.scenarios.build();
  std::vector<std::string> plans;
  for (std::size_t cell = 0; cell < grid.size(); ++cell)
    plans.push_back(core::plan_offload(core::offload_search_request(
                                           grid.at(cell), spec.space,
                                           spec.alpha))
                        .to_json()
                        .dump());
  return plans;
}

/// "<dynamic type>: <message>" of what `f` throws; empty when it returns.
std::string thrown(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return {};
}

// The build shares kernel tables across the cells of a context slice, but
// every plan must stay byte-identical to a full search of its own cell:
// for every order of the context axes, for context axes on knobs the
// search grid also sets, for a base without edges, and at every thread
// count. `slices` is the number of kernel prepares the build makes: one
// per combination of values of axis 0 and of every axis on a knob the
// search grid sets.
TEST(PlanIndex, BuildMatchesPerCellSearch) {
  const core::OffloadSearchSpace full = reduced_space();
  core::OffloadSearchSpace local_only = full;
  local_only.include_remote = false;
  const AxisSpec frame = numeric_axis("frame_size", {300, 500, 700});
  const AxisSpec throughput = numeric_axis("throughput_mbps", {40, 120, 200});
  const AxisSpec cpu = numeric_axis("cpu_ghz", {1.0, 2.0, 3.0});
  struct Case {
    std::string name;
    PlanIndexSpec spec;
    std::size_t slices;
  };
  const std::vector<Case> cases = {
      {"frame, throughput, cpu",
       index_spec("remote", {frame, throughput, cpu}, full), 3},
      {"throughput, frame, cpu",
       index_spec("remote", {throughput, frame, cpu}, full), 3},
      {"cpu, throughput, frame",
       index_spec("remote", {cpu, throughput, frame}, full), 3},
      {"frame only", index_spec("remote", {frame}, full), 3},
      {"frame, omega_c, throughput",
       index_spec("remote",
                  {frame, numeric_axis("omega_c", {0.2, 0.9}), throughput},
                  full),
       6},
      {"throughput, codec_mbps, frame",
       index_spec("remote",
                  {throughput, numeric_axis("codec_mbps", {3, 6}), frame},
                  full),
       6},
      {"cpu, edge_count",
       index_spec("remote", {cpu, numeric_axis("edge_count", {1, 3})}, full),
       6},
      {"frame, throughput, omega_c",
       index_spec("remote",
                  {frame, throughput, numeric_axis("omega_c", {0.2, 0.9})},
                  full),
       6},
      {"local factory: frame, edge_count",
       index_spec("local", {frame, numeric_axis("edge_count", {1, 2})}, full),
       6},
      {"local factory, local-only space: frame, edge_count",
       index_spec("local", {frame, numeric_axis("edge_count", {1, 2})},
                  local_only),
       3},
  };
  const auto prepares = [] {
    const auto snap = obs::Registry::global().snapshot();
    const auto* v = snap.counter("serving.kernel.prepares");
    return v ? *v : 0u;
  };
  for (const Case& c : cases) {
    const std::vector<std::string> expected = per_cell_plans(c.spec);
    for (const std::size_t threads :
         {std::size_t(1), std::size_t(0), std::size_t(3)}) {
      const std::string label = c.name + ", threads " + std::to_string(threads);
      const auto before = prepares();
      const auto index =
          OffloadPlanIndex::build(c.spec, {}, BatchOptions{threads});
      if (obs::kEnabled) {
        EXPECT_EQ(prepares() - before, c.slices) << label;
      }
      ASSERT_EQ(index.size(), expected.size()) << label;
      for (std::size_t cell = 0; cell < expected.size(); ++cell)
        ASSERT_EQ(index.plan_at(cell).to_json().dump(), expected[cell])
            << label << ", cell " << cell;
    }
  }

  // One invalid value: the build throws what the per-cell loop throws,
  // type and message.
  const std::vector<std::pair<std::string, PlanIndexSpec>> invalid = {
      {"cpu_ghz 0",
       index_spec("remote",
                  {frame, throughput, numeric_axis("cpu_ghz", {1.0, 0.0})},
                  full)},
      {"throughput_mbps 0",
       index_spec("remote",
                  {frame, numeric_axis("throughput_mbps", {40, 0}), cpu},
                  full)},
      {"edge_count 1.5",
       index_spec("remote",
                  {frame, numeric_axis("edge_count", {1, 1.5}), throughput},
                  full)},
  };
  for (const auto& [name, spec] : invalid) {
    const std::string reference = thrown([&] { (void)per_cell_plans(spec); });
    ASSERT_FALSE(reference.empty()) << name;
    for (const std::size_t threads : {std::size_t(1), std::size_t(3)})
      EXPECT_EQ(thrown([&] {
                  (void)OffloadPlanIndex::build(spec, {},
                                                BatchOptions{threads});
                }),
                reference)
          << name << ", threads " << threads;
  }
}

TEST(PlanIndex, QueriesMustMatchAxisArity) {
  const auto index = OffloadPlanIndex::build(small_spec());
  expect_throw_contains([&] { (void)index.exact_cell({500}); },
                        "query has 1 values but the index has 2");
  expect_throw_contains(
      [&] { (void)index.nearest_cell({500, std::nan("")}); },
      "axis 'throughput_mbps' must be finite");
}

}  // namespace
}  // namespace xr::runtime
