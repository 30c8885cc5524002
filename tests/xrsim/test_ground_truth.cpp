#include "xrsim/ground_truth.h"

#include <gtest/gtest.h>

#include "core/framework.h"

namespace xr::xrsim {
namespace {

GroundTruthConfig small_run(std::size_t frames = 64) {
  GroundTruthConfig cfg;
  cfg.frames = frames;
  cfg.seed = 7;
  return cfg;
}

TEST(GroundTruth, ProducesRequestedFrameCount) {
  const GroundTruthSimulator sim(small_run(50));
  const auto result = sim.run(core::make_local_scenario());
  EXPECT_EQ(result.frames.size(), 50u);
  EXPECT_EQ(result.latency.count(), 50u);
  EXPECT_EQ(result.energy.count(), 50u);
}

TEST(GroundTruth, FramesOverrideReplacesConfiguredCount) {
  const GroundTruthSimulator sim(small_run(50));
  const auto scenario = core::make_remote_scenario();

  // The disengaged sentinel preserves the configured behaviour bit-for-bit.
  const auto configured = sim.run(scenario);
  const auto defaulted = sim.run(scenario, std::nullopt);
  ASSERT_EQ(configured.frames.size(), 50u);
  ASSERT_EQ(defaulted.frames.size(), 50u);
  for (std::size_t i = 0; i < configured.frames.size(); ++i) {
    EXPECT_EQ(defaulted.frames[i].total_latency_ms,
              configured.frames[i].total_latency_ms);
    EXPECT_EQ(defaulted.frames[i].energy_mj, configured.frames[i].energy_mj);
  }

  // An override run equals a simulator configured with that frame count.
  const auto overridden = sim.run(scenario, 20);
  ASSERT_EQ(overridden.frames.size(), 20u);
  const GroundTruthSimulator sim20(small_run(20));
  const auto reference = sim20.run(scenario);
  ASSERT_EQ(reference.frames.size(), 20u);
  for (std::size_t i = 0; i < 20u; ++i) {
    EXPECT_EQ(overridden.frames[i].total_latency_ms,
              reference.frames[i].total_latency_ms);
    EXPECT_EQ(overridden.frames[i].energy_mj, reference.frames[i].energy_mj);
  }
  EXPECT_EQ(overridden.mean_latency_ms(), reference.mean_latency_ms());
}

TEST(GroundTruth, ZeroFrameOverrideIsAnHonoredDryRun) {
  // Regression: 0 used to be the "use configured frames" sentinel, so a
  // zero-frame dry run was silently impossible. The sentinel is now the
  // disengaged optional and an explicit 0 runs zero frames.
  const GroundTruthSimulator sim(small_run(50));
  const auto dry = sim.run(core::make_remote_scenario(), 0);
  EXPECT_TRUE(dry.frames.empty());
  EXPECT_EQ(dry.latency.count(), 0u);
  EXPECT_EQ(dry.energy.count(), 0u);
  EXPECT_EQ(dry.mean_latency_ms(), 0.0);
  EXPECT_EQ(dry.mean_energy_mj(), 0.0);
  // A dry run still validates its scenario.
  auto bad = core::make_local_scenario();
  bad.client.cpu_ghz = 0;
  EXPECT_THROW((void)sim.run(bad, 0), std::invalid_argument);
}

TEST(GroundTruth, TotalsOnlyModeSkipsFrameRecordsNotStats) {
  auto cfg = small_run(40);
  const GroundTruthSimulator full(cfg);
  cfg.record_frames = false;
  const GroundTruthSimulator slim(cfg);
  const auto scenario = core::make_remote_scenario();

  const auto with_frames = full.run(scenario);
  const auto totals_only = slim.run(scenario);
  ASSERT_EQ(with_frames.frames.size(), 40u);
  EXPECT_TRUE(totals_only.frames.empty());
  // The same frames were simulated in the same order: every statistic is
  // bitwise identical.
  EXPECT_EQ(totals_only.latency.count(), 40u);
  EXPECT_EQ(totals_only.mean_latency_ms(), with_frames.mean_latency_ms());
  EXPECT_EQ(totals_only.mean_energy_mj(), with_frames.mean_energy_mj());
  EXPECT_EQ(totals_only.latency.stddev(), with_frames.latency.stddev());
  EXPECT_EQ(totals_only.energy.stddev(), with_frames.energy.stddev());
}

TEST(GroundTruth, DeterministicForSeed) {
  const GroundTruthSimulator sim(small_run());
  const auto a = sim.run(core::make_remote_scenario());
  const auto b = sim.run(core::make_remote_scenario());
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t i = 0; i < a.frames.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.frames[i].total_latency_ms,
                     b.frames[i].total_latency_ms);
    EXPECT_DOUBLE_EQ(a.frames[i].energy_mj, b.frames[i].energy_mj);
  }
}

TEST(GroundTruth, DifferentSeedsDiffer) {
  GroundTruthConfig c1 = small_run();
  GroundTruthConfig c2 = small_run();
  c2.seed = 8;
  const auto a = GroundTruthSimulator(c1).run(core::make_local_scenario());
  const auto b = GroundTruthSimulator(c2).run(core::make_local_scenario());
  EXPECT_NE(a.mean_latency_ms(), b.mean_latency_ms());
}

TEST(GroundTruth, PerFrameSegmentsSumToTotal) {
  const GroundTruthSimulator sim(small_run());
  const auto result = sim.run(core::make_remote_scenario());
  for (const auto& f : result.frames) {
    const double sum = f.frame_generation_ms + f.volumetric_ms +
                       f.external_ms + f.rendering_ms +
                       f.conversion_or_encode_ms + f.inference_ms +
                       f.transmission_ms + f.handoff_ms;
    EXPECT_NEAR(f.total_latency_ms, sum, 1e-9);
    EXPECT_GT(f.energy_mj, 0);
  }
}

TEST(GroundTruth, AnalyticalModelTracksSimulation) {
  // The paper's central validation: the analytical framework predicts the
  // testbed's measurements within a few percent. Same acceptance here
  // against the simulated testbed (which contains effects the model does
  // not know about).
  const core::XrPerformanceModel model;
  GroundTruthConfig cfg;
  cfg.frames = 300;
  const GroundTruthSimulator sim(cfg);
  for (bool local : {true, false}) {
    const auto s = local ? core::make_local_scenario(500, 2.0)
                         : core::make_remote_scenario(500, 2.0);
    const auto gt = sim.run(s);
    const auto report = model.evaluate(s);
    EXPECT_NEAR(report.latency.total, gt.mean_latency_ms(),
                0.10 * gt.mean_latency_ms())
        << (local ? "local" : "remote");
    EXPECT_NEAR(report.energy.total, gt.mean_energy_mj(),
                0.12 * gt.mean_energy_mj())
        << (local ? "local" : "remote");
  }
}

TEST(GroundTruth, HiddenInflationBounded) {
  const GroundTruthSimulator sim(small_run());
  for (double size : {300.0, 500.0, 700.0})
    for (double ghz : {1.0, 2.0, 3.0}) {
      const double eta = sim.hidden_compute_inflation(size, ghz);
      EXPECT_GT(eta, 0.85);
      EXPECT_LT(eta, 1.15);
    }
  EXPECT_GT(sim.hidden_power_inflation(3.0),
            sim.hidden_power_inflation(1.0));
}

TEST(GroundTruth, CachePressureRaisesLargeFrameCost) {
  const GroundTruthSimulator sim(small_run());
  EXPECT_GT(sim.hidden_compute_inflation(700, 2.0),
            sim.hidden_compute_inflation(300, 2.0));
}

TEST(GroundTruth, LocalPathHasNoTransmission) {
  const GroundTruthSimulator sim(small_run());
  const auto result = sim.run(core::make_local_scenario());
  for (const auto& f : result.frames) {
    EXPECT_DOUBLE_EQ(f.transmission_ms, 0);
    EXPECT_DOUBLE_EQ(f.handoff_ms, 0);
  }
}

TEST(GroundTruth, MobilityProducesOccasionalHandoffs) {
  auto s = core::make_remote_scenario();
  s.mobility.enabled = true;
  s.mobility.step_length_per_frame_m = 8.0;  // fast walker: P(HO) ≈ 4%
  GroundTruthConfig cfg;
  cfg.frames = 2000;
  const auto result = GroundTruthSimulator(cfg).run(s);
  std::size_t events = 0;
  for (const auto& f : result.frames) events += (f.handoff_ms > 0);
  EXPECT_GT(events, 20u);
  EXPECT_LT(events, 400u);
}

TEST(GroundTruth, NoMobilityNoHandoffs) {
  const auto result =
      GroundTruthSimulator(small_run()).run(core::make_remote_scenario());
  for (const auto& f : result.frames) EXPECT_DOUBLE_EQ(f.handoff_ms, 0);
}

TEST(GroundTruth, LatencyGrowsWithFrameSize) {
  const GroundTruthSimulator sim(small_run(128));
  const double small_frames =
      sim.run(core::make_remote_scenario(300, 2.0)).mean_latency_ms();
  const double large_frames =
      sim.run(core::make_remote_scenario(700, 2.0)).mean_latency_ms();
  EXPECT_GT(large_frames, small_frames);
}

TEST(GroundTruth, ValidatesScenario) {
  const GroundTruthSimulator sim(small_run());
  auto s = core::make_local_scenario();
  s.client.cpu_ghz = 0;
  EXPECT_THROW((void)sim.run(s), std::invalid_argument);
  // A positive frame rate whose frame interval overflows to inf.
  auto slow = core::make_local_scenario();
  slow.frame.fps = 1e-310;
  EXPECT_THROW((void)sim.run(slow), std::invalid_argument);
}

}  // namespace
}  // namespace xr::xrsim
