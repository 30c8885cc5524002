// Property-based fuzzing: generate random *valid* scenarios and check the
// framework's invariants hold on every one of them.
#include <cmath>
#include <gtest/gtest.h>
#include <string>

#include "core/framework.h"
#include "core/optimizer.h"
#include "math/rng.h"

namespace xr {
namespace {

/// Draw a random valid scenario. Every parameter stays inside its physical
/// domain, so validate() must accept it and every model must produce finite,
/// consistent output.
core::ScenarioConfig random_scenario(math::Rng& rng) {
  const bool local = rng.bernoulli(0.5);
  core::ScenarioConfig s = local
                               ? core::make_local_scenario()
                               : core::make_remote_scenario();
  s.client.cpu_ghz = rng.uniform(0.8, 3.2);
  s.client.gpu_ghz = rng.uniform(0.4, 1.4);
  s.client.omega_c = rng.uniform(0.0, 1.0);
  s.client.memory_bandwidth_gbps = rng.uniform(10.0, 140.0);
  s.frame.fps = rng.uniform(10.0, 90.0);
  s.frame.frame_size = rng.uniform(240.0, 720.0);
  s.frame.scene_size = rng.uniform(240.0, 720.0);
  s.frame.converted_size = rng.uniform(120.0, 640.0);
  s.frame.inference_result_mb = rng.uniform(0.0, 0.1);

  s.sensors.clear();
  const int sensor_count = int(rng.uniform_int(1, 4));
  for (int i = 0; i < sensor_count; ++i) {
    std::string name("s");
    name += std::to_string(i);
    s.sensors.push_back(core::SensorConfig{name, rng.uniform(20.0, 400.0),
                                           rng.uniform(1.0, 300.0)});
  }
  s.updates_per_frame = int(rng.uniform_int(1, 6));

  s.buffer.service_rate_per_ms = rng.uniform(0.3, 3.0);
  s.buffer.frame_arrival_per_ms =
      rng.uniform(0.01, 0.8) * s.buffer.service_rate_per_ms * 0.3;
  s.buffer.volumetric_arrival_per_ms =
      rng.uniform(0.01, 0.8) * s.buffer.service_rate_per_ms * 0.3;
  s.buffer.external_arrival_per_ms =
      rng.uniform(0.01, 0.9) * s.buffer.service_rate_per_ms * 0.5;

  s.network.throughput_mbps = rng.uniform(5.0, 200.0);
  s.network.edge_distance_m = rng.uniform(5.0, 400.0);
  s.codec.bitrate_mbps = rng.uniform(1.0, 10.0);
  s.codec.fps = s.frame.fps;
  s.codec.quantization = double(rng.uniform_int(18, 40));

  if (!local) {
    const int edges = int(rng.uniform_int(1, 3));
    s.inference.edges.clear();
    for (int e = 0; e < edges; ++e) {
      core::EdgeConfig edge;
      edge.name = "e";
      edge.name += std::to_string(e);
      edge.omega_edge = 1.0 / double(edges);
      edge.cnn_name = rng.bernoulli(0.5) ? "YoloV3" : "YoloV7";
      if (rng.bernoulli(0.3)) edge.resource = rng.uniform(50.0, 300.0);
      s.inference.edges.push_back(edge);
    }
    if (rng.bernoulli(0.3)) {
      s.mobility.enabled = true;
      s.mobility.zone_radius_m = rng.uniform(50.0, 400.0);
      s.mobility.step_length_per_frame_m =
          rng.uniform(0.1, 0.04 * s.mobility.zone_radius_m);
      s.mobility.vertical_fraction = rng.uniform(0.0, 1.0);
    }
  }
  if (rng.bernoulli(0.3)) {
    s.cooperation.active = true;
    s.cooperation.include_in_total = rng.bernoulli(0.5);
  }
  s.aoi.request_period_ms = rng.uniform(2.0, 20.0);
  s.aoi.updates_per_frame = int(rng.uniform_int(1, 8));
  return s;
}

class ScenarioFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioFuzz, InvariantsHoldOnRandomScenarios) {
  math::Rng rng(GetParam());
  const core::XrPerformanceModel model;
  for (int trial = 0; trial < 40; ++trial) {
    const auto s = random_scenario(rng);
    ASSERT_NO_THROW(core::validate(s));
    const auto report = model.evaluate(s);
    const auto& lat = report.latency;
    const auto& ene = report.energy;

    // Finite, positive totals.
    ASSERT_TRUE(std::isfinite(lat.total));
    ASSERT_TRUE(std::isfinite(ene.total));
    ASSERT_GT(lat.total, 0);
    ASSERT_GT(ene.total, 0);

    // Every segment non-negative; totals equal the Eq. (1)/(19) sums.
    double lat_sum = 0, ene_sum = 0;
    for (core::Segment seg : core::all_segments()) {
      ASSERT_GE(lat.segment(seg), 0) << core::segment_name(seg);
      ASSERT_GE(ene.segment(seg), 0) << core::segment_name(seg);
      if (seg == core::Segment::kCooperation && !lat.cooperation_in_total)
        continue;
      lat_sum += lat.segment(seg);
      ene_sum += ene.segment(seg);
    }
    ASSERT_NEAR(lat.total, lat_sum, 1e-6 * lat.total);
    ASSERT_NEAR(ene.total, ene_sum + ene.base + ene.thermal,
                1e-6 * ene.total);

    // Exactly one inference path carries cost.
    const bool local =
        s.inference.placement == core::InferencePlacement::kLocal;
    if (local) {
      ASSERT_EQ(lat.encoding, 0);
      ASSERT_EQ(lat.transmission, 0);
      ASSERT_GT(lat.local_inference, 0);
    } else {
      ASSERT_EQ(lat.local_inference, 0);
      ASSERT_GT(lat.encoding, 0);
      ASSERT_GT(lat.transmission, 0);
    }

    // Buffer wait is part of rendering and below it.
    ASSERT_LE(lat.buffer_wait, lat.rendering + 1e-9);

    // AoI reports: positive ages, RoI consistent with freshness flags.
    for (const auto& sensor : report.sensors) {
      ASSERT_GT(sensor.average_aoi_ms, 0);
      ASSERT_GT(sensor.roi, 0);
      ASSERT_EQ(sensor.fresh, sensor.roi >= 1.0);
      ASSERT_NEAR(sensor.processed_hz, 1000.0 / sensor.average_aoi_ms,
                  1e-6 * sensor.processed_hz);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(ScenarioFuzz, OptimizerNeverWorseThanBaseOnItsObjective) {
  // The plan's best-latency candidate must beat (or match) the unmodified
  // base scenario, which is itself in the search space region.
  math::Rng rng(99);
  const core::XrPerformanceModel model;
  for (int trial = 0; trial < 10; ++trial) {
    const auto base = random_scenario(rng);
    const auto plan = core::plan_offload(base);
    const auto base_report = model.evaluate(base);
    // The grid may not contain the exact base point, but the optimum over
    // both placements can't be dramatically worse than base.
    EXPECT_LT(plan.best_latency.latency_ms(),
              base_report.latency.total * 1.5);
  }
}

TEST(ScenarioFuzz, MonotonicityInThroughputForRemote) {
  math::Rng rng(123);
  const core::XrPerformanceModel model;
  for (int trial = 0; trial < 20; ++trial) {
    auto s = random_scenario(rng);
    s.inference.placement = core::InferencePlacement::kRemote;
    if (s.inference.edges.empty())
      s.inference.edges = {core::EdgeConfig{}};
    s.inference.omega_client = 0.0;
    s.network.throughput_mbps = 10.0;
    const double slow = model.evaluate(s).latency.total;
    s.network.throughput_mbps = 100.0;
    const double fast = model.evaluate(s).latency.total;
    ASSERT_LE(fast, slow);
  }
}

}  // namespace
}  // namespace xr
