#include "runtime/sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/framework.h"
#include "core/serialize.h"

namespace xr::runtime {
namespace {

using core::Json;

TEST(SweepSpec, EmptySpecYieldsTheBaseScenario) {
  const auto base = core::make_local_scenario(500, 2.0);
  const auto grid = SweepSpec(base).build();
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.axis_count(), 0u);
  const auto s = grid.at(0);
  EXPECT_DOUBLE_EQ(s.frame.frame_size, base.frame.frame_size);
  EXPECT_DOUBLE_EQ(s.client.cpu_ghz, base.client.cpu_ghz);
}

TEST(SweepSpec, SizeIsProductOfAxes) {
  const auto grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                        .cpu_clocks_ghz({1.0, 2.0, 3.0})
                        .frame_sizes({300, 400, 500, 600, 700})
                        .codec_bitrates_mbps({2.0, 4.0})
                        .build();
  EXPECT_EQ(grid.size(), 3u * 5u * 2u);
  EXPECT_EQ(grid.axis_count(), 3u);
  EXPECT_EQ(grid.axis(0).name, "cpu_ghz");
}

TEST(SweepSpec, EnumerationMatchesNestedLoops) {
  // First declared axis is the outermost loop; factory geometry matches
  // make_local_scenario(size, ghz) exactly.
  const std::vector<double> clocks = {1.0, 2.0, 3.0};
  const std::vector<double> sizes = {300, 500, 700};
  const auto grid = SweepSpec(core::make_local_scenario(500, 2.0))
                        .cpu_clocks_ghz(clocks)
                        .frame_sizes(sizes)
                        .build();
  std::size_t i = 0;
  for (double ghz : clocks)
    for (double size : sizes) {
      const auto from_grid = grid.at(i);
      const auto from_factory = core::make_local_scenario(size, ghz);
      EXPECT_DOUBLE_EQ(from_grid.client.cpu_ghz, from_factory.client.cpu_ghz);
      EXPECT_DOUBLE_EQ(from_grid.frame.frame_size,
                       from_factory.frame.frame_size);
      EXPECT_DOUBLE_EQ(from_grid.frame.scene_size,
                       from_factory.frame.scene_size);
      EXPECT_DOUBLE_EQ(from_grid.frame.converted_size,
                       from_factory.frame.converted_size);
      ++i;
    }
  EXPECT_EQ(i, grid.size());
}

TEST(SweepSpec, CoordsRoundTrip) {
  const auto grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                        .cpu_clocks_ghz({1.0, 2.0})
                        .frame_sizes({300, 500, 700})
                        .edge_counts({1, 2})
                        .build();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto c = grid.coords(i);
    ASSERT_EQ(c.size(), 3u);
    EXPECT_EQ(grid.index_of(c), i);
  }
  EXPECT_THROW((void)grid.coords(grid.size()), std::out_of_range);
  EXPECT_THROW((void)grid.index_of({0}), std::invalid_argument);
}

TEST(SweepSpec, PlacementAxisConfiguresInference) {
  const auto grid =
      SweepSpec(core::make_local_scenario(500, 2.0))
          .placements({core::InferencePlacement::kLocal,
                       core::InferencePlacement::kRemote})
          .build();
  ASSERT_EQ(grid.size(), 2u);
  const auto local = grid.at(0);
  EXPECT_EQ(local.inference.placement, core::InferencePlacement::kLocal);
  EXPECT_TRUE(local.inference.edges.empty());
  EXPECT_DOUBLE_EQ(local.inference.omega_client, 1.0);
  const auto remote = grid.at(1);
  EXPECT_EQ(remote.inference.placement, core::InferencePlacement::kRemote);
  ASSERT_EQ(remote.inference.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(remote.inference.omega_client, 0.0);
  EXPECT_NO_THROW(core::validate(remote));
}

TEST(SweepSpec, EdgeCountAxisSplitsEvenly) {
  const auto grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                        .edge_cnns({"YoloV7"})
                        .edge_counts({1, 2, 4})
                        .build();
  const auto s = grid.at(2);  // edge_count=4
  ASSERT_EQ(s.inference.edges.size(), 4u);
  for (const auto& e : s.inference.edges) {
    EXPECT_EQ(e.cnn_name, "YoloV7");  // CNN axis applied to every edge
    EXPECT_NEAR(e.omega_edge, 0.25, 1e-12);
  }
  EXPECT_EQ(s.inference.edges[3].name, "edge-3");
  EXPECT_NO_THROW(core::validate(s));
}

TEST(SweepSpec, LabelsDescribeThePoint) {
  const auto grid = SweepSpec(core::make_local_scenario(500, 2.0))
                        .cpu_clocks_ghz({1.0, 2.0})
                        .local_cnns({"MobileNetv1_240_Quant"})
                        .build();
  EXPECT_EQ(grid.label(0), "cpu_ghz=1, local_cnn=MobileNetv1_240_Quant");
  EXPECT_EQ(grid.label(1), "cpu_ghz=2, local_cnn=MobileNetv1_240_Quant");
}

TEST(SweepSpec, GenericTypedAxis) {
  auto grid =
      SweepSpec(core::make_local_scenario(500, 2.0))
          .axis<double>("fps", {30.0, 60.0},
                        [](core::ScenarioConfig& s, const double& fps) {
                          s.frame.fps = fps;
                        })
          .build();
  EXPECT_DOUBLE_EQ(grid.at(0).frame.fps, 30.0);
  EXPECT_DOUBLE_EQ(grid.at(1).frame.fps, 60.0);
}

TEST(SweepSpec, Validation) {
  SweepSpec spec(core::make_local_scenario(500, 2.0));
  EXPECT_THROW(spec.cpu_clocks_ghz({}), std::invalid_argument);
  spec.cpu_clocks_ghz({1.0});
  EXPECT_THROW(spec.cpu_clocks_ghz({2.0}), std::invalid_argument);  // dup
  // Eager validation: a bad edge count fails at declaration, not at at().
  EXPECT_THROW((void)SweepSpec(core::make_remote_scenario(500, 2.0))
                   .edge_counts({0}),
               std::invalid_argument);
}

TEST(SweepSpec, ClosureAxesAreTheNonSerializableEscapeHatch) {
  SweepSpec spec(core::make_local_scenario(500, 2.0));
  spec.cpu_clocks_ghz({1.0, 2.0});
  EXPECT_TRUE(spec.serializable());
  EXPECT_EQ(spec.grid_spec().axes.size(), 1u);

  spec.axis<double>("fps", {30.0, 60.0},
                    [](core::ScenarioConfig& s, const double& fps) {
                      s.frame.fps = fps;
                    });
  EXPECT_FALSE(spec.serializable());
  EXPECT_THROW((void)spec.grid_spec(), std::invalid_argument);
  // The spec still builds; it just cannot become a document.
  EXPECT_EQ(spec.build().size(), 4u);
}

TEST(SweepSpec, GridSpecRoundTripsTheSpecThroughJson) {
  const auto spec = SweepSpec(core::make_remote_scenario(640, 2.5))
                        .cpu_clocks_ghz({1.0, 2.0})
                        .placements({core::InferencePlacement::kLocal,
                                     core::InferencePlacement::kRemote})
                        .codec_bitrates_mbps({2.0, 8.0});
  const GridSpec doc = spec.grid_spec();
  ASSERT_TRUE(doc.scenario.has_value());  // base embedded inline
  const GridSpec reparsed =
      GridSpec::from_json(Json::parse(doc.to_json().dump()));
  const auto a = spec.build();
  const auto b = reparsed.build();
  ASSERT_EQ(a.size(), b.size());
  const core::XrPerformanceModel model;
  for (std::size_t i = 0; i < a.size(); i += 3) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(core::to_json(model.evaluate(a.at(i))).dump(),
              core::to_json(model.evaluate(b.at(i))).dump());
  }
}

// ---- GridSpec -----------------------------------------------------------

GridSpec demo_spec() {
  GridSpec spec;
  spec.factory = "remote";
  spec.frame_size = 500;
  spec.cpu_ghz = 2.0;
  AxisSpec clocks;
  clocks.knob = "cpu_ghz";
  clocks.numbers = {1.0, 2.0, 3.0};
  AxisSpec sizes;
  sizes.knob = "frame_size";
  sizes.numbers = {300, 500, 700};
  AxisSpec cnns;
  cnns.knob = "edge_cnn";
  cnns.strings = {"YoloV3", "YoloV7"};
  spec.axes = {clocks, sizes, cnns};
  return spec;
}

TEST(GridSpec, BuildMatchesEquivalentSweepSpec) {
  const auto grid = demo_spec().build();
  const auto reference =
      SweepSpec(core::make_remote_scenario(500, 2.0))
          .cpu_clocks_ghz({1.0, 2.0, 3.0})
          .frame_sizes({300, 500, 700})
          .edge_cnns({"YoloV3", "YoloV7"})
          .build();
  ASSERT_EQ(grid.size(), reference.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(grid.label(i), reference.label(i));
    const auto a = grid.at(i);
    const auto b = reference.at(i);
    EXPECT_EQ(a.frame.frame_size, b.frame.frame_size);
    EXPECT_EQ(a.client.cpu_ghz, b.client.cpu_ghz);
    ASSERT_EQ(a.inference.edges.size(), b.inference.edges.size());
    for (std::size_t e = 0; e < a.inference.edges.size(); ++e)
      EXPECT_EQ(a.inference.edges[e].cnn_name, b.inference.edges[e].cnn_name);
  }
}

TEST(GridSpec, JsonRoundTripRebuildsTheSameGrid) {
  const GridSpec original = demo_spec();
  const std::string text = original.to_json().dump();
  const GridSpec reparsed = GridSpec::from_json(Json::parse(text));
  const auto a = original.build();
  const auto b = reparsed.build();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(a.at(i).frame.frame_size, b.at(i).frame.frame_size);
    EXPECT_EQ(a.at(i).client.cpu_ghz, b.at(i).client.cpu_ghz);
  }
  // Serialization itself is deterministic.
  EXPECT_EQ(text, reparsed.to_json().dump());
}

TEST(GridSpec, InlineScenarioBaseRoundTripsAnyWorkload) {
  GridSpec spec;
  spec.scenario = core::make_multiplayer_game_scenario();
  AxisSpec clocks;
  clocks.knob = "cpu_ghz";
  clocks.numbers = {1.0, 2.0};
  spec.axes = {clocks};

  const GridSpec reparsed =
      GridSpec::from_json(Json::parse(spec.to_json().dump()));
  ASSERT_TRUE(reparsed.scenario.has_value());
  const auto a = spec.build();
  const auto b = reparsed.build();
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  const core::XrPerformanceModel model;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(core::to_json(model.evaluate(a.at(i))).dump(),
              core::to_json(model.evaluate(b.at(i))).dump());
  // The heterogeneous two-edge deployment survived the trip.
  EXPECT_EQ(b.at(0).inference.edges.size(), 2u);
  EXPECT_EQ(b.at(0).inference.edges[1].name, "edge-B");
}

TEST(GridSpec, RejectsUnknownNames) {
  GridSpec spec = demo_spec();
  spec.factory = "orbital";
  EXPECT_THROW((void)spec.build(), std::invalid_argument);

  spec = demo_spec();
  AxisSpec bogus;
  bogus.knob = "warp_factor";
  bogus.numbers = {9.0};
  spec.axes.push_back(bogus);
  EXPECT_THROW((void)spec.build(), std::invalid_argument);

  spec = demo_spec();
  AxisSpec placement;
  placement.knob = "placement";
  placement.strings = {"local", "orbit"};
  spec.axes.push_back(placement);
  EXPECT_THROW((void)spec.build(), std::invalid_argument);
}

TEST(GridSpec, AxisValidationNamesTheOffendingAxis) {
  // Both value lists populated.
  AxisSpec mixed;
  mixed.knob = "cpu_ghz";
  mixed.numbers = {1.0};
  mixed.strings = {"YoloV3"};
  try {
    (void)axis_from_spec(mixed);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cpu_ghz"), std::string::npos);
  }

  // Wrong value kind for the knob.
  AxisSpec stringy;
  stringy.knob = "frame_size";
  stringy.strings = {"big"};
  try {
    (void)axis_from_spec(stringy);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frame_size"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("numeric"), std::string::npos);
  }

  // Unknown knob ids name the axis too.
  try {
    (void)knob_is_numeric("warp_factor");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("warp_factor"), std::string::npos);
  }

  // Fractional edge counts are rejected eagerly.
  AxisSpec counts;
  counts.knob = "edge_count";
  counts.numbers = {1.5};
  EXPECT_THROW((void)axis_from_spec(counts), std::invalid_argument);

  // Duplicate knobs across axes are rejected, with the knob named.
  GridSpec dup = demo_spec();
  AxisSpec again;
  again.knob = "cpu_ghz";
  again.numbers = {4.0};
  dup.axes.push_back(again);
  try {
    (void)dup.build();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cpu_ghz"), std::string::npos);
  }

  // Mixed-type values are rejected on parse, naming the axis.
  try {
    (void)GridSpec::from_json(Json::parse(
        R"({"base":{"scenario":"remote","frame_size":500,"cpu_ghz":2},)"
        R"("axes":[{"knob":"cpu_ghz","values":[1.0,"turbo"]}]})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cpu_ghz"), std::string::npos);
  }
}

// The prefix cursor builds every point bitwise as at() does, whatever the
// visiting order: odometer order (fast axes change) and a seeded shuffle
// (any prefix changes). Placement is declared first, so the edge axes act
// on the edge set each placement leaves behind.
TEST(ScenarioGridCursor, MatchesAtInOdometerAndShuffledOrder) {
  const auto grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                        .placements({core::InferencePlacement::kLocal,
                                     core::InferencePlacement::kRemote})
                        .frame_sizes({300, 700})
                        .cpu_clocks_ghz({1.0, 2.5})
                        .omega_c({0.0, 0.5})
                        .edge_counts({1, 3})
                        .edge_cnns({"YoloV3", "YoloV7"})
                        .local_cnns({"MobileNetv2_300_Float",
                                     "EfficientNet_Float"})
                        .codec_bitrates_mbps({2.0, 8.0})
                        .network_throughputs_mbps({40, 120})
                        .build();
  std::vector<std::size_t> order(grid.size());
  std::iota(order.begin(), order.end(), std::size_t(0));
  std::vector<std::size_t> shuffled = order;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));

  for (const auto* visit : {&order, &shuffled}) {
    ScenarioGrid::Cursor cursor(grid);
    for (std::size_t i : *visit)
      ASSERT_EQ(core::to_json(cursor.at(grid.coords(i))).dump(),
                core::to_json(grid.at(i)).dump())
          << "point " << i << (visit == &order ? " (odometer)" : " (shuffled)");
  }
}

TEST(ScenarioGridCursor, RejectsBadCoordsAndServesTheBaseWithoutAxes) {
  const auto grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                        .cpu_clocks_ghz({1.0, 2.0})
                        .build();
  ScenarioGrid::Cursor cursor(grid);
  EXPECT_THROW((void)cursor.at({0, 0}), std::invalid_argument);
  EXPECT_THROW((void)cursor.at({2}), std::out_of_range);
  EXPECT_EQ(cursor.at({1}).client.cpu_ghz, 2.0);

  const auto bare = SweepSpec(core::make_local_scenario(500, 2.0)).build();
  ScenarioGrid::Cursor base_cursor(bare);
  EXPECT_EQ(core::to_json(base_cursor.at({})).dump(),
            core::to_json(bare.at(0)).dump());
}

}  // namespace
}  // namespace xr::runtime
