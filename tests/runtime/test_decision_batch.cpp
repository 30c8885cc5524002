// The SoA serving kernel's standing gate: decisions and reports computed by
// DecisionBatchKernel are BITWISE identical to the scalar
// XrPerformanceModel::evaluate walk — per point, per summary, per plan —
// across the shared example scenarios and across thread counts. Also the
// satellite coverage for decision_at at grid edges (single-value axes,
// placement-last ordering, out-of-range rejection).
#include "runtime/decision_batch.h"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/framework.h"
#include "core/optimizer.h"
#include "devices/memo.h"
#include "obs/registry.h"
#include "runtime/offload_search.h"
#include "runtime/shard/merge.h"
#include "runtime/sweep_request.h"

namespace xr::runtime {
namespace {

/// RAII toggle so a failing assertion can't leave the kernel disabled for
/// the rest of the suite.
class KernelToggle {
 public:
  explicit KernelToggle(bool enabled)
      : restore_(batch_decision_kernel_enabled()) {
    set_batch_decision_kernel(enabled);
  }
  ~KernelToggle() { set_batch_decision_kernel(restore_); }

 private:
  bool restore_;
};

/// The shared example workloads the paper's figures use, plus the factory
/// bases — the same bases the sharded merge-law gates sweep.
std::vector<std::pair<std::string, core::ScenarioConfig>> example_bases() {
  return {{"remote_factory", core::make_remote_scenario()},
          {"local_factory", core::make_local_scenario()},
          {"autonomous_driving", core::make_autonomous_driving_scenario()},
          {"multiplayer_game", core::make_multiplayer_game_scenario()},
          {"handoff_mobility", core::make_handoff_mobility_scenario()}};
}

/// Everything decision-relevant in a MergedSummary, excluding the wall-time
/// stats (which legitimately differ run to run).
void expect_summaries_bitwise_equal(const shard::MergedSummary& a,
                                    const shard::MergedSummary& b,
                                    const std::string& label) {
  EXPECT_EQ(a.grid_size, b.grid_size) << label;
  EXPECT_EQ(a.evaluated, b.evaluated) << label;
  EXPECT_EQ(a.grid_fingerprint, b.grid_fingerprint) << label;
  EXPECT_EQ(a.best_latency_index, b.best_latency_index) << label;
  EXPECT_EQ(a.best_energy_index, b.best_energy_index) << label;
  EXPECT_EQ(a.min_latency_ms, b.min_latency_ms) << label;
  EXPECT_EQ(a.max_latency_ms, b.max_latency_ms) << label;
  EXPECT_EQ(a.min_energy_mj, b.min_energy_mj) << label;
  EXPECT_EQ(a.max_energy_mj, b.max_energy_mj) << label;
  ASSERT_EQ(a.pareto.size(), b.pareto.size()) << label;
  for (std::size_t i = 0; i < a.pareto.size(); ++i) {
    EXPECT_EQ(a.pareto[i].index, b.pareto[i].index) << label << " pareto " << i;
    EXPECT_EQ(a.pareto[i].latency_ms, b.pareto[i].latency_ms)
        << label << " pareto " << i;
    EXPECT_EQ(a.pareto[i].energy_mj, b.pareto[i].energy_mj)
        << label << " pareto " << i;
  }
}

/// One serializable axis: numeric values, or string values for the
/// placement and CNN knobs.
AxisSpec axis(const char* knob, std::vector<double> numbers,
              std::vector<std::string> strings = {}) {
  AxisSpec a;
  a.knob = knob;
  a.numbers = std::move(numbers);
  a.strings = std::move(strings);
  return a;
}

TEST(DecisionBatchKernel, DefaultEnabled) {
  EXPECT_TRUE(batch_decision_kernel_enabled());
}

// The tentpole gate: run_request with the kernel vs run_request without,
// over every example base and thread count — summaries bitwise equal and
// the derived plans byte-identical.
TEST(DecisionBatchKernel, BitwiseIdenticalToScalarAcrossExamplesAndThreads) {
  const core::XrPerformanceModel model;
  for (const auto& [name, base] : example_bases()) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(2),
                                      std::size_t(7)}) {
      auto request = core::offload_search_request(base, {}, 0.5);
      request.execution.threads = threads;
      const std::string label = name + " threads=" + std::to_string(threads);

      std::optional<shard::MergedSummary> scalar, batched;
      {
        KernelToggle off(false);
        scalar = run_request(request, model);
      }
      {
        KernelToggle on(true);
        // Assert the kernel actually took the request (not a silent
        // scalar fallback that would make this gate vacuous).
        ASSERT_TRUE(try_run_request_batched(request, model).has_value())
            << label;
        batched = run_request(request, model);
      }
      expect_summaries_bitwise_equal(*scalar, *batched, label);

      const auto scalar_plan =
          core::offload_plan_from_summary(request, *scalar, model);
      const auto batched_plan =
          core::offload_plan_from_summary(request, *batched, model);
      EXPECT_EQ(scalar_plan.to_json().dump(), batched_plan.to_json().dump())
          << label;
    }
  }
}

// Per-point totals, not just reductions: every (latency, energy) pair the
// kernel computes equals the scalar model's, on grids mixing decision
// knobs with scenario context axes — and is invariant to the thread count.
// The second grid declares placement first (so the edge axes act on the
// edge set each placement leaves) and varies every knob, so every recipe
// tuple is walked with more than one value per axis.
TEST(DecisionBatchKernel, PerPointTotalsMatchScalarOnMixedGrid) {
  const core::XrPerformanceModel model;
  GridSpec placement_last;
  placement_last.factory = "remote";
  placement_last.axes = {axis("frame_size", {300, 700}),
                         axis("cpu_ghz", {1.0, 2.5}),
                         axis("omega_c", {0.0, 0.5, 1.0}),
                         axis("local_cnn", {}, {"MobileNetv2_300_Float"}),
                         axis("edge_count", {1, 2}),
                         axis("codec_mbps", {2.0, 8.0}),
                         axis("placement", {}, {"local", "remote"})};
  GridSpec placement_first;
  placement_first.factory = "remote";
  placement_first.axes = {
      axis("placement", {}, {"local", "remote"}),
      axis("frame_size", {300, 700}),
      axis("cpu_ghz", {1.0, 2.5}),
      axis("omega_c", {0.0, 0.5, 1.0}),
      axis("local_cnn", {}, {"MobileNetv2_300_Float", "EfficientNet_Float"}),
      axis("edge_count", {1, 2}),
      axis("edge_cnn", {}, {"YoloV3", "YoloV7"}),
      axis("codec_mbps", {2.0, 8.0}),
      axis("throughput_mbps", {40, 120})};

  for (const GridSpec* spec : {&placement_last, &placement_first}) {
    const std::string label =
        spec == &placement_last ? "placement last" : "placement first";
    const auto kernel = DecisionBatchKernel::prepare(*spec, model);
    ASSERT_TRUE(kernel.has_value()) << label;
    const ScenarioGrid grid = spec->build();
    ASSERT_EQ(kernel->size(), grid.size()) << label;

    const auto serial = kernel->run(BatchOptions{1});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto report = model.evaluate(grid.at(i));
      ASSERT_EQ(serial.latency_ms[i], report.latency.total)
          << label << " point " << i;
      ASSERT_EQ(serial.energy_mj[i], report.energy.total)
          << label << " point " << i;
    }

    for (const std::size_t threads : {std::size_t(2), std::size_t(7)}) {
      const auto parallel = kernel->run(BatchOptions{threads});
      ASSERT_EQ(parallel.latency_ms, serial.latency_ms)
          << label << " threads=" << threads;
      ASSERT_EQ(parallel.energy_mj, serial.energy_mj)
          << label << " threads=" << threads;
    }
  }
}

// All CNN/codec submodel lookups happen in prepare(); a run() touches only
// the precomputed tables. (The throughput bench gates the same property at
// serving scale.)
TEST(DecisionBatchKernel, RunPerformsNoSubmodelLookups) {
  const auto request =
      core::offload_search_request(core::make_remote_scenario(), {}, 0.5);
  const auto kernel = DecisionBatchKernel::prepare(request.grid);
  ASSERT_TRUE(kernel.has_value());
  const std::uint64_t before = devices::submodel_lookup_count();
  (void)kernel->run(BatchOptions{1});
  EXPECT_EQ(devices::submodel_lookup_count(), before);
}

TEST(DecisionBatchKernel, FallsBackWhenDisabledOrIneligible) {
  const core::XrPerformanceModel model;
  auto request =
      core::offload_search_request(core::make_remote_scenario(), {}, 0.5);
  {
    KernelToggle off(false);
    EXPECT_FALSE(try_run_request_batched(request, model).has_value());
  }
  {
    KernelToggle on(true);
    EXPECT_TRUE(try_run_request_batched(request, model).has_value());
    // Ground-truth evaluators have fidelity/seed semantics the table
    // cannot reproduce — the kernel must decline, not approximate.
    auto gt = request;
    gt.reduction.kind = ReductionKind::kSummary;
    gt.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
    EXPECT_FALSE(try_run_request_batched(gt, model).has_value());
  }
}

/// 5 ω_c × 2 local CNNs × 2 edge CNNs × 3 edge counts × 3 bitrates: 360
/// candidates, more than one fold block and not a multiple of one.
core::OffloadSearchSpace reduced_space() {
  core::OffloadSearchSpace space;
  space.omega_c_grid = {0.0, 0.25, 0.5, 0.75, 1.0};
  space.local_cnns = {"MobileNetv2_300_Float", "EfficientNet_Float"};
  space.edge_cnns = {"YoloV3", "YoloV7"};
  space.edge_counts = {1, 2, 4};
  space.codec_bitrates_mbps = {2.0, 4.0, 8.0};
  return space;
}

// The plan index's build path: context axes ahead of one search grid, one
// prepare, and each cell's candidate range folded under the cell's own
// request fingerprint. Every fold is the summary the scalar path computes
// for that cell's request.
TEST(DecisionBatchKernel, RangeFoldMatchesRunRequestPerCell) {
  const core::XrPerformanceModel model;
  const core::OffloadSearchSpace space = reduced_space();
  GridSpec context;
  context.factory = "remote";
  context.axes = {axis("throughput_mbps", {40, 200}),
                  axis("cpu_ghz", {1.0, 2.5, 3.0})};
  const ScenarioGrid cells = context.build();
  auto sliced = core::offload_search_request(cells.base(), space, 0.5);
  sliced.grid.axes.insert(sliced.grid.axes.begin(), context.axes.begin(),
                          context.axes.end());
  const auto kernel = DecisionBatchKernel::prepare(sliced.grid, model);
  ASSERT_TRUE(kernel.has_value());
  const std::size_t n = kernel->size() / cells.size();
  ASSERT_EQ(n, 360u);

  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const auto request =
        core::offload_search_request(cells.at(cell), space, 0.5);
    const std::size_t begin = cell * n;
    shard::PartialReduction partial(
        {0, 1, shard::ShardStrategy::kRange, n, request.fingerprint()});
    kernel->fold_range(begin, begin + n,
                       [&](std::size_t first, std::size_t count,
                           const double* latency, const double* energy) {
                         EXPECT_LE(count, DecisionBatchKernel::kFoldBlock);
                         for (std::size_t i = 0; i < count; ++i)
                           partial.add(first - begin + i, latency[i],
                                       energy[i]);
                       });
    std::optional<shard::MergedSummary> scalar;
    {
      KernelToggle off(false);
      scalar = run_request(request, model);
    }
    expect_summaries_bitwise_equal(shard::merge_partials({partial}), *scalar,
                                   "cell " + std::to_string(cell));
  }

  const auto ignore = [](std::size_t, std::size_t, const double*,
                         const double*) {};
  EXPECT_THROW(kernel->fold_range(0, kernel->size() + 1, ignore),
               std::out_of_range);
  EXPECT_THROW(kernel->fold_range(2, 1, ignore), std::out_of_range);
}

// Each scenario a prepare needs is built once. On the 50,688-candidate
// offload request (8 frame sizes ahead of the 6,336-candidate serving
// space) that is 13,200 distinct table scenarios plus one validation per
// axis value (58), where walking each segment from its own walk built the
// 264 remote-placement scenarios both inference walks read twice.
TEST(DecisionBatchKernel, PrepareBuildsEachScenarioOnce) {
  if (!obs::kEnabled) GTEST_SKIP() << "XR_OBS_DISABLED build";
  core::OffloadSearchSpace space;
  space.omega_c_grid.clear();
  for (int i = 0; i <= 32; ++i) space.omega_c_grid.push_back(i / 32.0);
  space.local_cnns = {"MobileNetv2_300_Float", "EfficientNet_Float"};
  space.edge_cnns = {"YoloV3", "YoloV7"};
  space.edge_counts = {1, 2, 4};
  space.codec_bitrates_mbps = {1, 2, 3, 4, 5, 6, 7, 8};
  auto request =
      core::offload_search_request(core::make_remote_scenario(), space, 0.5);
  request.grid.axes.insert(
      request.grid.axes.begin(),
      axis("frame_size", {300, 350, 400, 450, 500, 550, 600, 650}));
  const auto kernel = DecisionBatchKernel::prepare(request.grid);
  ASSERT_TRUE(kernel.has_value());
  ASSERT_EQ(kernel->size(), 50688u);
  const auto snap = obs::Registry::global().snapshot();
  const double* scenarios = snap.gauge("serving.kernel.scenarios");
  ASSERT_NE(scenarios, nullptr);
  EXPECT_EQ(*scenarios, 13258.0);
}

/// Dynamic type name of what `f` throws; empty when it returns normally.
template <typename F>
std::string thrown_type(F&& f) {
  try {
    f();
  } catch (const std::exception& e) {
    return typeid(e).name();
  }
  return {};
}

// Throw parity: a grid carrying exactly one invalid value is rejected by
// the kernel with the exception type the scalar path raises. Several
// values sit only in path-masked table entries (a local CNN on a
// remote-only grid, an edge CNN on a local-only one), which the kernel
// never builds, so this also pins its per-axis-value validation.
TEST(DecisionBatchKernel, RejectsEveryInvalidValueLikeScalar) {
  const core::XrPerformanceModel model;
  const auto grid = [](std::vector<AxisSpec> axes) {
    GridSpec spec;
    spec.factory = "remote";
    spec.axes = std::move(axes);
    return spec;
  };
  const AxisSpec both = axis("placement", {}, {"local", "remote"});

  GridSpec mobility = grid({axis("omega_c", {0.25, 0.75}), both});
  mobility.scenario = core::make_handoff_mobility_scenario();
  mobility.scenario->mobility.step_length_per_frame_m =
      mobility.scenario->mobility.zone_radius_m;

  const std::vector<std::pair<std::string, GridSpec>> cases = {
      {"local_cnn on a remote-only grid",
       grid({axis("omega_c", {0.5, 1.0}),
             axis("local_cnn", {}, {"MobileNetv2_300_Float", "NoSuchCnn"}),
             axis("codec_mbps", {2.0, 4.0})})},
      {"edge_cnn on a local-only grid, placement first",
       grid({axis("placement", {}, {"local"}), axis("omega_c", {0.5}),
             axis("edge_count", {1, 2}),
             axis("edge_cnn", {}, {"YoloV3", "NoSuchCnn"})})},
      {"throughput_mbps",
       grid({axis("omega_c", {0.5}), axis("throughput_mbps", {40, 0}),
             both})},
      {"omega_c", grid({axis("omega_c", {0.5, 1.5}), both})},
      {"cpu_ghz", grid({axis("cpu_ghz", {2, 0}), both})},
      {"mobility step at the zone radius", mobility},
  };
  for (const auto& [name, spec] : cases) {
    SweepRequest request;
    request.grid = spec;
    std::string scalar, kernel;
    {
      KernelToggle off(false);
      scalar = thrown_type([&] { (void)run_request(request, model); });
    }
    {
      KernelToggle on(true);
      // The kernel itself must throw, not decline to the scalar path.
      kernel = thrown_type(
          [&] { (void)try_run_request_batched(request, model); });
    }
    EXPECT_FALSE(scalar.empty()) << name;
    EXPECT_EQ(kernel, scalar) << name;
  }
}

// ---- decision_at grid edges (satellite) --------------------------------

TEST(DecisionAt, SingleValueAxesDecodeTheOnlyCandidate) {
  core::OffloadSearchSpace space;
  space.omega_c_grid = {0.25};
  space.local_cnns = {"MobileNetv2_300_Float"};
  space.edge_cnns = {"YoloV7"};
  space.edge_counts = {2};
  space.codec_bitrates_mbps = {4.0};
  space.include_local = false;  // placement axis collapses to {remote}
  const auto request = core::offload_search_request(
      core::make_remote_scenario(), space, 0.5);
  ASSERT_EQ(request.grid.build().size(), 1u);
  const auto d = core::decision_at(request.grid, 0);
  EXPECT_EQ(d.placement, core::InferencePlacement::kRemote);
  EXPECT_EQ(d.omega_c, 0.25);
  EXPECT_EQ(d.local_cnn, "MobileNetv2_300_Float");
  EXPECT_EQ(d.edge_cnn, "YoloV7");
  EXPECT_EQ(d.edge_count, 2);
  EXPECT_EQ(d.codec.bitrate_mbps, 4.0);
}

// The placement axis is declared last (fastest-varying), so adjacent
// indices are the local/remote pair of one candidate: index 0 and 1 share
// every decoded knob (here ω_c, the only knob both placements consume —
// decisions are canonicalized to the fields their placement uses) and
// differ in placement alone.
TEST(DecisionAt, PlacementVariesFastest) {
  const auto request = core::offload_search_request(
      core::make_remote_scenario(), {}, 0.5);
  const auto first = core::decision_at(request.grid, 0);
  const auto second = core::decision_at(request.grid, 1);
  EXPECT_EQ(first.placement, core::InferencePlacement::kLocal);
  EXPECT_EQ(second.placement, core::InferencePlacement::kRemote);
  EXPECT_EQ(first.omega_c, second.omega_c);

  // Last in-range index decodes (the far grid edge)…
  const std::size_t size = request.grid.build().size();
  EXPECT_NO_THROW((void)core::decision_at(request.grid, size - 1));
  // …and one past it is a hard error, not a wrapped coordinate.
  EXPECT_THROW((void)core::decision_at(request.grid, size),
               std::out_of_range);
}

}  // namespace
}  // namespace xr::runtime
