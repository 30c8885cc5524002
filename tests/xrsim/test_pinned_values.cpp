// Pinned simulator values.
//
// The other ground-truth tests compare the simulator with itself: the same
// seed twice, sharded vs monolithic, a frames override. A change that
// shifted every value would pass all of them. This file pins the exact
// bits GroundTruthSimulator and simulate_sensor_aoi produce for fixed
// seeds, so a rewrite that claims to preserve behaviour (a different
// frame loop, a faster power monitor) has to prove it here.
//
// Changing any constant below is a versioned simulator break: every
// ground-truth record stream and every Fig. 4/5 "GT" curve moves with it,
// so it needs a fingerprint bump and a re-check of the model-error bands,
// never a silent update of this table.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "xrsim/ground_truth.h"
#include "xrsim/sensors.h"

namespace xr::xrsim {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// FNV-1a over the little-endian bytes of every FrameRecord field, in
/// declaration order (`frame` widened to 64 bits, doubles by bit pattern).
std::uint64_t hash_frames(const std::vector<FrameRecord>& frames) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& f : frames) {
    mix(std::uint64_t(f.frame));
    for (double d : {f.frame_generation_ms, f.volumetric_ms, f.external_ms,
                     f.buffer_wait_ms, f.rendering_ms,
                     f.conversion_or_encode_ms, f.inference_ms,
                     f.transmission_ms, f.handoff_ms, f.total_latency_ms,
                     f.energy_mj})
      mix(bits(d));
  }
  return h;
}

struct PinnedRun {
  const char* name;
  core::ScenarioConfig (*make)();
  std::uint64_t seed;
  double mean_latency_ms;
  double mean_energy_mj;
  std::uint64_t frame_hash;
};

// 120 frames per run. The handoff scenario walks fast enough to hand off
// (7 and 1 events); the driving scenario exercises four sensors.
const PinnedRun kRuns[] = {
    {"local", [] { return core::make_local_scenario(); }, 42,
     0x1.cfbb4d6a40a1dp+7, 0x1.23e30ac940089p+7, 0xe665667f752023edULL},
    {"local", [] { return core::make_local_scenario(); }, 2024,
     0x1.d0619b342502dp+7, 0x1.24d0725c3dee7p+7, 0x4813c118751f4952ULL},
    {"remote", [] { return core::make_remote_scenario(); }, 42,
     0x1.3c52296781be8p+9, 0x1.98018e986d022p+8, 0xdefb160109801e53ULL},
    {"remote", [] { return core::make_remote_scenario(); }, 2024,
     0x1.3ccbd22ac3957p+9, 0x1.989b770e9beb9p+8, 0x3d119854fda94319ULL},
    {"handoff",
     [] { return core::make_handoff_mobility_scenario(8.0, 0.3); }, 42,
     0x1.42f2296781be9p+9, 0x1.a6c647c30d2fep+8, 0xc7cf822378563216ULL},
    {"handoff",
     [] { return core::make_handoff_mobility_scenario(8.0, 0.3); }, 2024,
     0x1.3f61278018ea9p+9, 0x1.9d4b6a8cf4fedp+8, 0x7539bf2010f9988dULL},
    {"game", core::make_multiplayer_game_scenario, 42,
     0x1.28d3f8deecbd1p+9, 0x1.c44782a2957a1p+8, 0x6bcc12d7fa45cfafULL},
    {"game", core::make_multiplayer_game_scenario, 2024,
     0x1.298d9f38a9803p+9, 0x1.c7fe320d9945fp+8, 0x3956abacb168332cULL},
    {"driving", core::make_autonomous_driving_scenario, 42,
     0x1.b8f2c6d562f2cp+9, 0x1.498cfd3df575ep+9, 0xe12dd98aadaf90c1ULL},
    {"driving", core::make_autonomous_driving_scenario, 2024,
     0x1.b8f1e72dc12ecp+9, 0x1.4a10d094fc346p+9, 0x218b0c25cad81eb3ULL},
};

TEST(PinnedValues, GroundTruthRunsKeepTheirBits) {
  for (const auto& pin : kRuns) {
    GroundTruthConfig cfg;
    cfg.frames = 120;
    cfg.seed = pin.seed;
    const auto r = GroundTruthSimulator(cfg).run(pin.make());
    SCOPED_TRACE(std::string(pin.name) + " seed " + std::to_string(pin.seed));
    ASSERT_EQ(r.frames.size(), 120u);
    EXPECT_EQ(bits(r.mean_latency_ms()), bits(pin.mean_latency_ms))
        << std::hexfloat << r.mean_latency_ms();
    EXPECT_EQ(bits(r.mean_energy_mj()), bits(pin.mean_energy_mj))
        << std::hexfloat << r.mean_energy_mj();
    EXPECT_EQ(hash_frames(r.frames), pin.frame_hash)
        << std::hex << hash_frames(r.frames);
  }
}

struct PinnedObservation {
  double request_time_ms;
  double generated_time_ms;
  double delivered_time_ms;
  double aoi_ms;
};

void expect_observations(const std::vector<AoiObservation>& got,
                         const std::vector<PinnedObservation>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("cycle " + std::to_string(i + 1));
    EXPECT_EQ(got[i].cycle, int(i + 1));
    EXPECT_EQ(bits(got[i].request_time_ms), bits(want[i].request_time_ms))
        << std::hexfloat << got[i].request_time_ms;
    EXPECT_EQ(bits(got[i].generated_time_ms), bits(want[i].generated_time_ms))
        << std::hexfloat << got[i].generated_time_ms;
    EXPECT_EQ(bits(got[i].delivered_time_ms), bits(want[i].delivered_time_ms))
        << std::hexfloat << got[i].delivered_time_ms;
    EXPECT_EQ(bits(got[i].aoi_ms), bits(want[i].aoi_ms))
        << std::hexfloat << got[i].aoi_ms;
  }
}

core::BufferConfig light_buffer() {
  core::BufferConfig b;
  b.external_arrival_per_ms = 0.01;
  b.service_rate_per_ms = 10.0;
  return b;
}

TEST(PinnedValues, JitteredSensorObservationsKeepTheirBits) {
  // A 100 Hz sensor against 5 ms requests: the age grows every cycle.
  const core::SensorConfig sensor{"pinned", 100.0, 10.0};
  SensorSimConfig cfg;  // 2% jitter, seed 7
  expect_observations(
      simulate_sensor_aoi(sensor, light_buffer(), 5.0, 6, cfg),
      {{0x0p+0, 0x1.4746882739be6p+3, 0x1.4b9ad4546eea8p+3,
        0x1.4b9ad4546eea8p+3},
       {0x1.4p+2, 0x1.403887270410ep+4, 0x1.41180b970a528p+4,
        0x1.e230172e14a5p+3},
       {0x1.4p+3, 0x1.db08e4721dfd8p+4, 0x1.db8ad93095323p+4,
        0x1.3b8ad93095323p+4},
       {0x1.ep+3, 0x1.3bc40a39fe9aep+5, 0x1.3d25e34b12a18p+5,
        0x1.8a4bc6962543p+4},
       {0x1.4p+4, 0x1.891699b14c1bep+5, 0x1.8974246db4b4fp+5,
        0x1.d2e848db6969ep+4},
       {0x1.9p+4, 0x1.da2e0e4a5457cp+5, 0x1.dab83dca3412cp+5,
        0x1.12b83dca3412cp+5}});
}

TEST(PinnedValues, ExactCycleSensorObservationsKeepTheirBits) {
  // A 400 Hz sensor against 5 ms requests: the age sits on its floor of
  // one generation cycle plus the delivery delay.
  const core::SensorConfig sensor{"pinned", 400.0, 10.0};
  SensorSimConfig cfg;
  cfg.generation_jitter_fraction = 0.0;
  cfg.seed = 11;
  expect_observations(
      simulate_sensor_aoi(sensor, light_buffer(), 5.0, 6, cfg),
      {{0x0p+0, 0x1.4p+1, 0x1.588cdfa567b7fp+1, 0x1.588cdfa567b7fp+1},
       {0x1.4p+2, 0x1.4p+2, 0x1.43cc4745ad31ap+2, 0x1.47988e8b5a634p+1},
       {0x1.4p+3, 0x1.ep+2, 0x1.e205f9e3767a9p+2, 0x1.440bf3c6ecf52p+1},
       {0x1.ep+3, 0x1.4p+3, 0x1.45d67fd87baedp+3, 0x1.5759ff61eebb4p+1},
       {0x1.4p+4, 0x1.9p+3, 0x1.900ae42aa4a75p+3, 0x1.402b90aa929d4p+1},
       {0x1.9p+4, 0x1.ep+3, 0x1.e439d6aa9fd5fp+3, 0x1.50e75aaa7f57cp+1}});
}

}  // namespace
}  // namespace xr::xrsim
