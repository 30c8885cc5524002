// Offload-decision serving throughput: scalar walk vs SoA kernel vs
// OffloadPlanIndex lookups.
//
// Measures decisions/sec over a serving-sized offload search grid
// (~6.3k candidates: 33 ω_c × 2 local CNNs × 2 edge CNNs × 3 edge counts
// × 8 bitrates), best of 5 passes each:
//
//   * scalar     — the pre-kernel path: XrPerformanceModel::evaluate per
//                  candidate, single-thread and thread-saturated;
//   * soa        — DecisionBatchKernel::run over the same grid;
//   * index hits — exact-cell lookups against a small precomputed
//                  OffloadPlanIndex (the tier that answers without any
//                  model work at all).
//
// Three gates make this a regression test, not just a report (nonzero exit
// on failure):
//   1. bitwise — every SoA (latency, energy) total equals the scalar
//      model's, across the whole grid;
//   2. hoisting — devices::submodel_lookup_count() is flat across a kernel
//      run (all CNN/codec lookups happened in prepare);
//   3. speed — single-thread SoA ≥ 2× single-thread scalar (the measured
//      margin is far larger; 2× keeps the gate robust to timer noise on
//      the 1-core CI box — see ROADMAP).
//
// Emits BENCH_decision_throughput.json as an obs snapshot
// ("xr.obs.snapshot.v1"): the gate numbers are recorded as gauges (with
// "parallel_candidates_per_sec" aliased to the saturated SoA rate), and the
// same document carries the serving-path counters the run produced — the
// plan-index exact/snap/miss tiers and the kernel's decisions/s — so one
// artifact answers both "how fast" and "which tier answered".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/framework.h"
#include "core/optimizer.h"
#include "devices/memo.h"
#include "runtime/decision_batch.h"
#include "runtime/offload_search.h"
#include "runtime/plan_index.h"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A serving-sized search space: the default OffloadSearchSpace's axes at
/// the resolution a planner would actually sweep ω and the bitrate.
xr::core::OffloadSearchSpace serving_space() {
  xr::core::OffloadSearchSpace space;
  space.omega_c_grid.clear();
  for (int i = 0; i <= 32; ++i) space.omega_c_grid.push_back(i / 32.0);
  space.local_cnns = {"MobileNetv2_300_Float", "EfficientNet_Float"};
  space.edge_cnns = {"YoloV3", "YoloV7"};
  space.edge_counts = {1, 2, 4};
  space.codec_bitrates_mbps = {1, 2, 3, 4, 5, 6, 7, 8};
  return space;
}

}  // namespace

int main() {
  using namespace xr;
  const core::XrPerformanceModel model;
  const auto request = core::offload_search_request(
      core::make_remote_scenario(), serving_space(), 0.5);
  const runtime::ScenarioGrid grid = request.grid.build();
  const std::size_t n = grid.size();
  constexpr int kPasses = 5;

  // ---- scalar reference: totals + best-of-5 single-thread timing -------
  std::vector<double> scalar_latency(n), scalar_energy(n);
  double scalar_single_ms = 1e300;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const core::PerformanceReport report = model.evaluate(grid.at(i));
      scalar_latency[i] = report.latency.total;
      scalar_energy[i] = report.energy.total;
    }
    scalar_single_ms = std::min(scalar_single_ms, ms_since(start));
  }

  // Thread-saturated scalar: the same per-point walk on the shared pool.
  const runtime::BatchEvaluator engine(model, runtime::BatchOptions{0});
  double scalar_saturated_ms = 1e300;
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto start = Clock::now();
    const auto reports = engine.map(
        n, [&](std::size_t i) { return model.evaluate(grid.at(i)); });
    scalar_saturated_ms = std::min(scalar_saturated_ms, ms_since(start));
    if (reports.size() != n) return 1;  // keep the work observable
  }

  // ---- SoA kernel -------------------------------------------------------
  const auto kernel = runtime::DecisionBatchKernel::prepare(request.grid,
                                                            model);
  if (!kernel) {
    std::fprintf(stderr,
                 "decision_throughput: kernel refused the search grid\n");
    return 1;
  }
  runtime::DecisionBatchKernel::Totals soa_single;
  double soa_single_ms = 1e300, soa_saturated_ms = 1e300;
  std::size_t saturated_threads = 1;
  std::uint64_t lookups_during_run = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    const std::uint64_t before = devices::submodel_lookup_count();
    auto totals = kernel->run(runtime::BatchOptions{1});
    lookups_during_run += devices::submodel_lookup_count() - before;
    soa_single_ms = std::min(soa_single_ms, totals.wall_ms);
    if (pass == 0) soa_single = std::move(totals);
  }
  for (int pass = 0; pass < kPasses; ++pass) {
    const auto totals = kernel->run(runtime::BatchOptions{0});
    soa_saturated_ms = std::min(soa_saturated_ms, totals.wall_ms);
    saturated_threads = totals.threads;
  }

  bool identical = true;
  for (std::size_t i = 0; identical && i < n; ++i)
    identical = soa_single.latency_ms[i] == scalar_latency[i] &&
                soa_single.energy_mj[i] == scalar_energy[i];

  // ---- index exact-hit lookups -----------------------------------------
  runtime::PlanIndexSpec spec;
  spec.scenarios.factory = "remote";
  {
    runtime::AxisSpec frame;
    frame.knob = "frame_size";
    frame.numbers = {300, 500, 700};
    runtime::AxisSpec throughput;
    throughput.knob = "throughput_mbps";
    throughput.numbers = {50, 100};
    spec.scenarios.axes = {frame, throughput};
  }
  auto index = runtime::OffloadPlanIndex::build(spec, model);
  const std::vector<std::vector<double>> queries = {
      {300, 50}, {500, 100}, {700, 50}, {500, 50}};
  std::size_t hits = 0;
  constexpr std::size_t kLookups = 400000;
  const auto lookup_start = Clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    const auto cell = index.exact_cell(queries[i % queries.size()]);
    if (cell && index.plan_at(*cell).candidates_evaluated > 0) ++hits;
  }
  const double lookup_ms = ms_since(lookup_start);
  if (hits != kLookups) {
    std::fprintf(stderr, "decision_throughput: %zu/%zu exact lookups hit\n",
                 hits, kLookups);
    return 1;
  }

  // Full serve() mix across the three tiers, so the snapshot carries a
  // nonzero count for every serving.plan_index.* counter: grid points
  // (exact), a nearby off-grid point within the default gap (snap), and a
  // far-off point (computed — a fresh search).
  (void)index.serve({300, 50}, model);
  (void)index.serve({700, 100}, model);
  (void)index.serve({510, 98}, model);
  (void)index.serve({3000, 5}, model);
  const runtime::PlanServeCounters& tiers = index.counters();
  if (tiers.exact_hits != 2 || tiers.nearest_hits != 1 ||
      tiers.computed != 1) {
    std::fprintf(stderr,
                 "decision_throughput: serve mix hit unexpected tiers "
                 "(%llu exact, %llu snap, %llu computed; want 2/1/1)\n",
                 (unsigned long long)tiers.exact_hits,
                 (unsigned long long)tiers.nearest_hits,
                 (unsigned long long)tiers.computed);
    return 1;
  }

  // ---- report + gates ---------------------------------------------------
  const auto per_sec = [](std::size_t count, double wall_ms) {
    return wall_ms > 0 ? double(count) * 1000.0 / wall_ms : 0.0;
  };
  const double scalar_single_ps = per_sec(n, scalar_single_ms);
  const double scalar_saturated_ps = per_sec(n, scalar_saturated_ms);
  const double soa_single_ps = per_sec(n, soa_single_ms);
  const double soa_saturated_ps = per_sec(n, soa_saturated_ms);
  const double index_ps = per_sec(kLookups, lookup_ms);
  const bool hoisted = lookups_during_run == 0;
  const bool fast_enough = soa_single_ps >= 2.0 * scalar_single_ps;

  xr::bench::bench_number("grid_candidates", double(n));
  xr::bench::bench_number("threads", double(saturated_threads));
  xr::bench::bench_number("table_entries", double(kernel->table_entries()));
  xr::bench::bench_number("scalar_single_per_sec", scalar_single_ps);
  xr::bench::bench_number("soa_single_per_sec", soa_single_ps);
  xr::bench::bench_number(
      "speedup_single",
      scalar_single_ps > 0 ? soa_single_ps / scalar_single_ps : 0.0);
  xr::bench::bench_number("scalar_saturated_per_sec", scalar_saturated_ps);
  xr::bench::bench_number("soa_saturated_per_sec", soa_saturated_ps);
  xr::bench::bench_number("index_lookups_per_sec", index_ps);
  xr::bench::bench_number("wall_ms", soa_single_ms);
  xr::bench::bench_number("parallel_candidates_per_sec", soa_saturated_ps);
  xr::bench::bench_number("identical", identical ? 1 : 0);
  xr::bench::bench_number("lookups_hoisted", hoisted ? 1 : 0);
  const std::string path =
      xr::bench::write_bench_snapshot("decision_throughput");

  if (!identical)
    std::fprintf(stderr,
                 "decision_throughput: SoA totals diverged from the scalar "
                 "model (see %s)\n",
                 path.c_str());
  if (!hoisted)
    std::fprintf(stderr,
                 "decision_throughput: kernel run performed %llu submodel "
                 "lookups; all lookups must hoist into prepare()\n",
                 (unsigned long long)lookups_during_run);
  if (!fast_enough)
    std::fprintf(stderr,
                 "decision_throughput: single-thread SoA %.0f/s < 2x scalar "
                 "%.0f/s\n",
                 soa_single_ps, scalar_single_ps);
  return identical && hoisted && fast_enough ? 0 : 1;
}
