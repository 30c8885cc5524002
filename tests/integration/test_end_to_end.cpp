// Cross-module integration tests: the full workflow the README describes —
// generate data, calibrate regressions, inject the fitted models into the
// analytical framework, and validate against the simulated ground truth.
#include <gtest/gtest.h>

#include "core/framework.h"
#include "math/stats.h"
#include "queueing/mm1.h"
#include "queueing/simqueue.h"
#include "testbed/calibration.h"
#include "testbed/experiments.h"
#include "xrsim/ground_truth.h"
#include "xrsim/sensors.h"

namespace xr {
namespace {

TEST(Integration, BufferModelMatchesQueueSimulation) {
  // The Eq. (7) buffering term is an M/M/1 mean; the Lindley-recursion
  // simulator must agree with it, closing the loop between the analytical
  // and empirical queueing layers.
  core::BufferConfig buffer;  // defaults: λ_ext = 0.2/ms, µ = 1.0/ms
  const core::LatencyModel model;
  const double analytic = model.buffering_ms(buffer);

  math::Rng rng(17);
  const double empirical =
      queueing::simulate_mm1(buffer.frame_arrival_per_ms,
                             buffer.service_rate_per_ms, 150000, rng)
          .mean_sojourn +
      queueing::simulate_mm1(buffer.volumetric_arrival_per_ms,
                             buffer.service_rate_per_ms, 150000, rng)
          .mean_sojourn +
      queueing::simulate_mm1(buffer.external_arrival_per_ms,
                             buffer.service_rate_per_ms, 150000, rng)
          .mean_sojourn;
  EXPECT_NEAR(empirical, analytic, 0.06 * analytic);
}

TEST(Integration, RefittedModelsPlugIntoFramework) {
  // §VII workflow: calibrate the four regressions on synthetic data, build
  // a LatencyModel from the fitted coefficients, and check it still tracks
  // ground truth about as well as the paper-coefficient model.
  testbed::DatasetSizes sizes;
  sizes.allocation_train = 5000;
  sizes.allocation_test = 1500;
  sizes.encoding_train = 5000;
  sizes.encoding_test = 1500;
  sizes.power_train = 4000;
  sizes.power_test = 1200;
  sizes.cnn_train = 1500;
  sizes.cnn_test = 450;
  const auto datasets = testbed::generate_datasets(99, sizes);

  const auto alloc = testbed::calibrate_allocation(datasets.allocation);
  const auto enc = testbed::calibrate_encoding(datasets.encoding);
  const auto cnn = testbed::calibrate_cnn(datasets.cnn);

  core::LatencyModel::Submodels sub;
  sub.allocation =
      devices::ComputeAllocationModel::from_fitted(alloc.coefficients);
  sub.codec = devices::CodecModel::from_fitted(enc.coefficients, 1.0 / 3.0);
  sub.cnn = devices::CnnComplexityModel::from_fitted(cnn.coefficients);
  const core::LatencyModel refitted(std::move(sub));
  const core::LatencyModel paper;

  xrsim::GroundTruthConfig gt_cfg;
  gt_cfg.frames = 200;
  const xrsim::GroundTruthSimulator sim(gt_cfg);

  std::vector<double> truth, paper_pred, refit_pred;
  for (double size : {300.0, 500.0, 700.0}) {
    const auto s = core::make_remote_scenario(size, 2.0);
    truth.push_back(sim.run(s).mean_latency_ms());
    paper_pred.push_back(paper.evaluate(s).total);
    refit_pred.push_back(refitted.evaluate(s).total);
  }
  const double paper_err = math::mape(truth, paper_pred);
  const double refit_err = math::mape(truth, refit_pred);
  EXPECT_LT(paper_err, 10.0);
  // The refit learned from noisy cross-device data; allow slack but it
  // must stay a usable model.
  EXPECT_LT(refit_err, 25.0);
}

TEST(Integration, AnalyticAoiTracksDesSensors) {
  // AoI Eqs. (22)-(24) vs the sensor simulation, over several
  // sensor rates and request periods.
  const core::AoiModel model;
  core::BufferConfig buffer;
  buffer.external_arrival_per_ms = 0.05;
  buffer.service_rate_per_ms = 2.0;
  for (double hz : {50.0, 100.0, 200.0}) {
    for (double period : {5.0, 10.0}) {
      core::SensorConfig sensor;
      sensor.generation_hz = hz;
      sensor.distance_m = 25.0;
      xrsim::SensorSimConfig sim_cfg;
      sim_cfg.generation_jitter_fraction = 0.0;
      const auto obs =
          xrsim::simulate_sensor_aoi(sensor, buffer, period, 12, sim_cfg);
      const auto analytic = model.timeline(sensor, buffer, period, 12);
      double sim_mean = 0, model_mean = 0;
      for (std::size_t i = 0; i < obs.size(); ++i) {
        sim_mean += obs[i].aoi_ms;
        model_mean += analytic[i].aoi_ms;
      }
      EXPECT_NEAR(model_mean / 12.0, sim_mean / 12.0,
                  0.15 * (sim_mean / 12.0) + 0.5)
          << hz << " Hz, " << period << " ms";
    }
  }
}

TEST(Integration, OffloadDecisionConsistentBetweenModelAndSim) {
  // Where the analytical model says local wins by a clear margin, the
  // ground-truth simulator must agree (and vice versa).
  const core::XrPerformanceModel model;
  xrsim::GroundTruthConfig cfg;
  cfg.frames = 150;
  const xrsim::GroundTruthSimulator sim(cfg);

  auto slow_net = core::make_remote_scenario(700, 2.0);
  slow_net.network.throughput_mbps = 5.0;  // remote badly handicapped
  const auto local = core::make_local_scenario(700, 2.0);

  const bool model_prefers_local =
      model.evaluate(local).latency.total <
      model.evaluate(slow_net).latency.total;
  const bool sim_prefers_local = sim.run(local).mean_latency_ms() <
                                 sim.run(slow_net).mean_latency_ms();
  EXPECT_EQ(model_prefers_local, sim_prefers_local);
  EXPECT_TRUE(model_prefers_local);  // at 5 Mbps local must win
}

TEST(Integration, HandoffChargesOnlyRemoteMobileScenarios) {
  const core::XrPerformanceModel model;
  auto s = core::make_remote_scenario(500, 2.0);
  const double base = model.evaluate(s).latency.total;
  s.mobility.enabled = true;
  const double mobile = model.evaluate(s).latency.total;
  EXPECT_GT(mobile, base);
  // The increase equals Eq. (17)'s expected handoff latency.
  const wireless::HandoffModel hom(
      s.mobility.handoff, s.mobility.zone_radius_m,
      s.mobility.step_length_per_frame_m, s.mobility.vertical_fraction);
  EXPECT_NEAR(mobile - base, hom.expected_latency_ms(), 1e-9);
}

TEST(Integration, EndToEndReportRoundTripThroughCsv) {
  // Figure data survives the CSV serialization used by the benches.
  testbed::SweepConfig cfg;
  cfg.frame_sizes = {300, 500};
  cfg.cpu_clocks_ghz = {2.0};
  cfg.frames_per_point = 30;
  const auto r =
      testbed::run_latency_validation(core::InferencePlacement::kLocal, cfg);
  const auto table = r.series.to_table();
  const auto round = trace::CsvTable::parse(table.to_csv());
  EXPECT_EQ(round.rows(), table.rows());
  EXPECT_EQ(round.columns(), table.columns());
  for (std::size_t i = 0; i < round.rows(); ++i)
    for (std::size_t j = 0; j < round.columns(); ++j)
      EXPECT_DOUBLE_EQ(round.row(i)[j], table.row(i)[j]);
}

}  // namespace
}  // namespace xr
