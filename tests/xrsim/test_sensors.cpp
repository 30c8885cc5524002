#include "xrsim/sensors.h"

#include <gtest/gtest.h>

#include "core/aoi_model.h"

namespace xr::xrsim {
namespace {

core::BufferConfig light_buffer() {
  core::BufferConfig b;
  b.external_arrival_per_ms = 0.01;
  b.service_rate_per_ms = 10.0;  // ~0.1 ms mean sojourn
  return b;
}

core::SensorConfig sensor_at(double hz) {
  core::SensorConfig s;
  s.generation_hz = hz;
  s.distance_m = 10.0;
  return s;
}

TEST(SensorSim, ObservationCountAndMetadata) {
  SensorSimConfig cfg;
  const auto obs = simulate_sensor_aoi(sensor_at(100), light_buffer(), 5.0,
                                       10, cfg);
  ASSERT_EQ(obs.size(), 10u);
  for (int n = 1; n <= 10; ++n) {
    const auto& o = obs[std::size_t(n - 1)];
    EXPECT_EQ(o.cycle, n);
    EXPECT_NEAR(o.request_time_ms, 5.0 * (n - 1), 1e-12);
    EXPECT_GT(o.delivered_time_ms, o.generated_time_ms);
    EXPECT_GT(o.aoi_ms, 0);
  }
}

TEST(SensorSim, MatchesAnalyticStaircaseWithinJitter) {
  SensorSimConfig cfg;
  cfg.generation_jitter_fraction = 0.0;  // exact generation cycles
  const auto obs =
      simulate_sensor_aoi(sensor_at(100), light_buffer(), 5.0, 6, cfg);
  const core::AoiModel model;
  const auto analytic =
      model.timeline(sensor_at(100), light_buffer(), 5.0, 6);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    // Only the stochastic buffer sojourn separates GT from the analytic
    // form (which uses the mean sojourn ≈ 0.1 ms).
    EXPECT_NEAR(obs[i].aoi_ms, analytic[i].aoi_ms, 1.5) << i;
  }
}

TEST(SensorSim, SlowSensorAoiGrows) {
  SensorSimConfig cfg;
  const auto obs = simulate_sensor_aoi(sensor_at(200.0 / 3.0),
                                       light_buffer(), 5.0, 8, cfg);
  EXPECT_GT(obs.back().aoi_ms, obs.front().aoi_ms + 20.0);
}

TEST(SensorSim, MatchedSensorAoiFlat) {
  SensorSimConfig cfg;
  cfg.generation_jitter_fraction = 0.0;
  const auto obs =
      simulate_sensor_aoi(sensor_at(200), light_buffer(), 5.0, 8, cfg);
  for (const auto& o : obs) EXPECT_NEAR(o.aoi_ms, 5.0, 2.0);
}

TEST(SensorSim, DeterministicForSeed) {
  SensorSimConfig cfg;
  cfg.seed = 99;
  const auto a =
      simulate_sensor_aoi(sensor_at(100), light_buffer(), 5.0, 5, cfg);
  const auto b =
      simulate_sensor_aoi(sensor_at(100), light_buffer(), 5.0, 5, cfg);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].aoi_ms, b[i].aoi_ms);
}

TEST(SensorSim, MeanObservedAoi) {
  const std::vector<AoiObservation> obs{
      {1, 0, 0, 0, 10.0}, {2, 0, 0, 0, 20.0}};
  EXPECT_DOUBLE_EQ(mean_observed_aoi_ms(obs), 15.0);
  EXPECT_THROW((void)mean_observed_aoi_ms({}), std::invalid_argument);
}

TEST(SensorSim, Validation) {
  SensorSimConfig cfg;
  EXPECT_THROW((void)simulate_sensor_aoi(sensor_at(100), light_buffer(),
                                         5.0, 0, cfg),
               std::invalid_argument);
  EXPECT_THROW((void)simulate_sensor_aoi(sensor_at(100), light_buffer(),
                                         0.0, 5, cfg),
               std::invalid_argument);
  // Frequencies that are not positive, or so low that the generation
  // times overflow, are refused rather than simulated.
  for (double hz : {0.0, -5.0, 1e-320})
    EXPECT_THROW(
        (void)simulate_sensor_aoi(sensor_at(hz), light_buffer(), 5.0, 5, cfg),
        std::invalid_argument)
        << hz;
  core::BufferConfig unstable;
  unstable.external_arrival_per_ms = 2.0;
  unstable.service_rate_per_ms = 1.0;
  EXPECT_THROW(
      (void)simulate_sensor_aoi(sensor_at(100), unstable, 5.0, 5, cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace xr::xrsim
