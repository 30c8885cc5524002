// google-benchmark micro-benchmarks: cost of evaluating the analytical
// models and throughput of the supporting machinery (ground-truth frames,
// regression fitting, queue simulation). These quantify the paper's
// practical claim that the analytical framework replaces hours of testbed
// measurement with microsecond-scale evaluation.
#include <benchmark/benchmark.h>

#include "core/framework.h"
#include "math/regression.h"
#include "math/rng.h"
#include "queueing/simqueue.h"
#include "testbed/experiments.h"
#include "xrsim/ground_truth.h"

namespace {

void BM_LatencyModelEvaluate(benchmark::State& state) {
  const xr::core::LatencyModel model;
  const auto scenario = xr::core::make_remote_scenario(500, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(scenario).total);
  }
}
BENCHMARK(BM_LatencyModelEvaluate);

void BM_FullFrameworkEvaluate(benchmark::State& state) {
  const xr::core::XrPerformanceModel model;
  const auto scenario = xr::core::make_remote_scenario(500, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(scenario).latency.total);
  }
}
BENCHMARK(BM_FullFrameworkEvaluate);

void BM_AoiTimeline(benchmark::State& state) {
  const xr::core::AoiModel model;
  xr::core::SensorConfig sensor;
  sensor.generation_hz = 100;
  const xr::core::BufferConfig buffer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.timeline(sensor, buffer, 5.0, int(state.range(0))));
  }
}
BENCHMARK(BM_AoiTimeline)->Arg(16)->Arg(128);

void BM_GroundTruthFrame(benchmark::State& state) {
  xr::xrsim::GroundTruthConfig cfg;
  cfg.frames = std::size_t(state.range(0));
  const xr::xrsim::GroundTruthSimulator sim(cfg);
  const auto scenario = xr::core::make_remote_scenario(500, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(scenario).mean_latency_ms());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GroundTruthFrame)->Arg(32)->Arg(256);

void BM_RegressionFit(benchmark::State& state) {
  xr::math::Rng rng(99);
  const std::size_t n = std::size_t(state.range(0));
  std::vector<std::vector<double>> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0, 10), b = rng.uniform(0, 5);
    x[i] = {a, b};
    y[i] = 3.0 + 2.0 * a - 0.5 * b + rng.normal(0, 0.1);
  }
  for (auto _ : state) {
    xr::math::LinearModel model(
        {xr::math::raw_feature("a", 0), xr::math::raw_feature("b", 1)});
    benchmark::DoNotOptimize(model.fit(x, y).r_squared);
  }
}
BENCHMARK(BM_RegressionFit)->Arg(1000)->Arg(10000);

void BM_QueueSimulation(benchmark::State& state) {
  xr::math::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        xr::queueing::simulate_mm1(0.2, 0.35, std::size_t(state.range(0)),
                                   rng)
            .mean_sojourn);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_QueueSimulation)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
