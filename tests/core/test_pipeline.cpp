#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

#include "core/framework.h"

namespace xr::core {
namespace {

TEST(Pipeline, SegmentNamesUnique) {
  const auto& segments = all_segments();
  EXPECT_EQ(segments.size(), 11u);
  for (std::size_t i = 0; i < segments.size(); ++i)
    for (std::size_t j = i + 1; j < segments.size(); ++j)
      EXPECT_STRNE(segment_name(segments[i]), segment_name(segments[j]));
}

TEST(Pipeline, DataSizeDerivations) {
  FrameConfig f;
  f.frame_size = 500;
  f.scene_size = 400;
  f.converted_size = 300;
  // YUV420: 1.5 B/px; scene: 2 B/px; RGB tensor: 3 B/px.
  EXPECT_NEAR(raw_frame_mb(f), 1.5e-6 * 500 * 500, 1e-12);
  EXPECT_NEAR(volumetric_mb(f), 2.0e-6 * 400 * 400, 1e-12);
  EXPECT_NEAR(converted_mb(f), 3.0e-6 * 300 * 300, 1e-12);
}

TEST(Pipeline, ExplicitDataSizesOverrideDerivation) {
  FrameConfig f;
  f.raw_frame_mb = 1.25;
  f.volumetric_mb = 0.5;
  f.converted_mb = 0.75;
  EXPECT_DOUBLE_EQ(raw_frame_mb(f), 1.25);
  EXPECT_DOUBLE_EQ(volumetric_mb(f), 0.5);
  EXPECT_DOUBLE_EQ(converted_mb(f), 0.75);
}

TEST(Pipeline, TotalTaskShareSumsClientAndEdges) {
  InferenceConfig inf;
  inf.omega_client = 0.2;
  inf.edges = {EdgeConfig{}, EdgeConfig{}};
  inf.edges[0].omega_edge = 0.5;
  inf.edges[1].omega_edge = 0.3;
  EXPECT_NEAR(total_task_share(inf), 1.0, 1e-12);
}

TEST(PipelineValidate, DefaultFactoriesAreValid) {
  EXPECT_NO_THROW(validate(make_local_scenario()));
  EXPECT_NO_THROW(validate(make_remote_scenario()));
}

/// Each case mutates a valid scenario into an invalid one.
struct InvalidCase {
  const char* name;
  std::function<void(ScenarioConfig&)> mutate;
};

// Print a case by its name. gtest's default dump of the raw struct bytes
// holds pointers, so the ctest names it yields would change every build.
void PrintTo(const InvalidCase& c, std::ostream* os) { *os << c.name; }

class ValidateRejects : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(ValidateRejects, Throws) {
  ScenarioConfig s = make_remote_scenario();
  GetParam().mutate(s);
  EXPECT_ANY_THROW(validate(s)) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    InvalidScenarios, ValidateRejects,
    ::testing::Values(
        InvalidCase{"zero_cpu",
                    [](ScenarioConfig& s) { s.client.cpu_ghz = 0; }},
        InvalidCase{"zero_gpu",
                    [](ScenarioConfig& s) { s.client.gpu_ghz = 0; }},
        InvalidCase{"omega_above_one",
                    [](ScenarioConfig& s) { s.client.omega_c = 1.5; }},
        InvalidCase{"zero_bandwidth",
                    [](ScenarioConfig& s) {
                      s.client.memory_bandwidth_gbps = 0;
                    }},
        InvalidCase{"zero_fps", [](ScenarioConfig& s) { s.frame.fps = 0; }},
        InvalidCase{"zero_frame_size",
                    [](ScenarioConfig& s) { s.frame.frame_size = 0; }},
        InvalidCase{"negative_result_payload",
                    [](ScenarioConfig& s) {
                      s.frame.inference_result_mb = -1;
                    }},
        InvalidCase{"bad_sensor_rate",
                    [](ScenarioConfig& s) {
                      s.sensors[0].generation_hz = 0;
                    }},
        InvalidCase{"unstable_frame_buffer",
                    [](ScenarioConfig& s) {
                      s.buffer.frame_arrival_per_ms =
                          s.buffer.service_rate_per_ms;
                    }},
        InvalidCase{"unstable_external_buffer",
                    [](ScenarioConfig& s) {
                      s.buffer.external_arrival_per_ms =
                          2 * s.buffer.service_rate_per_ms;
                    }},
        InvalidCase{"zero_throughput",
                    [](ScenarioConfig& s) {
                      s.network.throughput_mbps = 0;
                    }},
        InvalidCase{"remote_without_edges",
                    [](ScenarioConfig& s) { s.inference.edges.clear(); }},
        InvalidCase{"bad_omega_edge",
                    [](ScenarioConfig& s) {
                      s.inference.edges[0].omega_edge = 1.5;
                    }},
        InvalidCase{"unknown_edge_cnn",
                    [](ScenarioConfig& s) {
                      s.inference.edges[0].cnn_name = "NotACnn";
                    }},
        InvalidCase{"unknown_local_cnn",
                    [](ScenarioConfig& s) {
                      s.inference.local_cnn_name = "NotACnn";
                    }},
        InvalidCase{"mobility_step_too_big",
                    [](ScenarioConfig& s) {
                      s.mobility.enabled = true;
                      s.mobility.step_length_per_frame_m =
                          s.mobility.zone_radius_m;
                    }},
        InvalidCase{"bad_vertical_fraction",
                    [](ScenarioConfig& s) {
                      s.mobility.enabled = true;
                      s.mobility.vertical_fraction = 2.0;
                    }},
        InvalidCase{"zero_request_period",
                    [](ScenarioConfig& s) { s.aoi.request_period_ms = 0; }},
        InvalidCase{"zero_aoi_updates",
                    [](ScenarioConfig& s) { s.aoi.updates_per_frame = 0; }},
        InvalidCase{"updates_without_sensors",
                    [](ScenarioConfig& s) {
                      s.sensors.clear();
                      s.updates_per_frame = 2;
                    }}));

TEST(PipelineValidate, LocalScenarioHasNoEdges) {
  const ScenarioConfig s = make_local_scenario();
  EXPECT_TRUE(s.inference.edges.empty());
  EXPECT_EQ(s.inference.placement, InferencePlacement::kLocal);
}

TEST(PipelineValidate, RemoteFactoryDisablesMobility) {
  // Fig. 4(b): "In remote inference, device mobility is not considered."
  const ScenarioConfig s = make_remote_scenario();
  EXPECT_FALSE(s.mobility.enabled);
}

TEST(PipelineValidate, SensorlessScenarioIsValid) {
  ScenarioConfig s = make_local_scenario();
  s.sensors.clear();
  s.updates_per_frame = 0;
  EXPECT_NO_THROW(validate(s));
}

}  // namespace
}  // namespace xr::core
