// Shared helpers for the figure-regeneration bench binaries.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/registry.h"
#include "obs/snapshot.h"
#include "runtime/batch_evaluator.h"
#include "runtime/sweep.h"
#include "testbed/experiments.h"
#include "trace/table.h"

namespace xr::bench {

/// Where the benches drop their machine-readable artifacts: $XR_BENCH_OUT
/// when set, else bench/out/ under the working directory (gitignored).
/// Created on first use.
inline std::string bench_out_dir() {
  const char* env = std::getenv("XR_BENCH_OUT");
  const std::string dir = (env && *env) ? env : "bench/out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Standard sweep used by the Fig. 4/5 benches: the paper's frame-size axis
/// (300–700 pixel²) at CPU clocks 1/2/3 GHz.
inline testbed::SweepConfig paper_sweep() {
  testbed::SweepConfig cfg;
  cfg.frame_sizes = {300, 400, 500, 600, 700};
  cfg.cpu_clocks_ghz = {1.0, 2.0, 3.0};
  cfg.frames_per_point = 150;
  cfg.seed = 42;
  return cfg;
}

inline void print_validation(const char* figure, const char* paper_error,
                             const testbed::ValidationResult& result,
                             const testbed::SweepConfig& cfg) {
  std::printf("%s\n", result.series.render_table().c_str());
  for (std::size_t i = 0; i < result.per_clock_error_percent.size(); ++i)
    std::printf("mean error @ %.0f GHz : %.2f%%\n", cfg.cpu_clocks_ghz[i],
                result.per_clock_error_percent[i]);
  std::printf("%s overall mean error : %.2f%%   (paper reports %s)\n",
              figure, result.mean_error_percent, paper_error);
}

inline void print_comparison(const char* figure,
                             const testbed::ComparisonResult& result,
                             double paper_gap_fact, double paper_gap_leaf) {
  std::printf("%s\n", result.accuracy.render_table().c_str());
  std::printf("mean normalized accuracy: Proposed %.2f%%  FACT %.2f%%  "
              "LEAF %.2f%%\n",
              result.mean_accuracy_proposed, result.mean_accuracy_fact,
              result.mean_accuracy_leaf);
  std::printf(
      "%s: Proposed beats FACT by %.2f pts (paper: %.2f), LEAF by %.2f pts "
      "(paper: %.2f)\n",
      figure, result.gap_vs_fact(), paper_gap_fact, result.gap_vs_leaf(),
      paper_gap_leaf);
}

/// Record one bench gate number on the obs registry (a gauge named after
/// the legacy flat JSON field). Booleans go in as 0/1.
inline void bench_number(const std::string& field, double value) {
  obs::Gauge(field).set(value);
}

/// Capture the whole process registry — the bench's gate numbers recorded
/// via bench_number() alongside every runtime/serving counter the run
/// produced — as BENCH_<name>.json ("xr.obs.snapshot.v1", tagged with the
/// bench name), and echo it as a one-line "BENCH_JSON " stdout record for
/// log scrapers. Returns the file path.
inline std::string write_bench_snapshot(const char* name) {
  obs::ObsDocument doc = obs::capture(/*include_trace=*/false);
  doc.label = name;
  const std::string json = doc.to_json().dump();
  const std::string path = bench_out_dir() + "/BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  std::printf("BENCH_JSON %s\n", json.c_str());
  return path;
}

/// A deployment-space grid large enough to time the batch runtime: 2550
/// candidates over frame size × CPU clock × ω_c × codec bitrate × edge
/// count around the paper's remote operating point.
inline runtime::ScenarioGrid runtime_benchmark_grid() {
  std::vector<double> sizes;
  for (double s = 300; s <= 700; s += 25) sizes.push_back(s);
  return runtime::SweepSpec(xr::core::make_remote_scenario(500.0, 2.0))
      .frame_sizes(sizes)
      .cpu_clocks_ghz({1.0, 1.5, 2.0, 2.5, 3.0})
      .omega_c({0.0, 0.25, 0.5, 0.75, 1.0})
      .codec_bitrates_mbps({2.0, 4.0, 8.0})
      .edge_counts({1, 2})
      .build();
}

/// Bitwise comparison of two reports: totals, every Eq. (1) segment of both
/// breakdowns, and the per-sensor AoI numbers.
inline bool reports_identical(const core::PerformanceReport& a,
                              const core::PerformanceReport& b) {
  if (a.latency.total != b.latency.total ||
      a.energy.total != b.energy.total ||
      a.latency.buffer_wait != b.latency.buffer_wait ||
      a.energy.base != b.energy.base || a.energy.thermal != b.energy.thermal)
    return false;
  for (core::Segment s : core::all_segments())
    if (a.latency.segment(s) != b.latency.segment(s) ||
        a.energy.segment(s) != b.energy.segment(s))
      return false;
  if (a.sensors.size() != b.sensors.size()) return false;
  for (std::size_t m = 0; m < a.sensors.size(); ++m)
    if (a.sensors[m].average_aoi_ms != b.sensors[m].average_aoi_ms ||
        a.sensors[m].roi != b.sensors[m].roi)
      return false;
  return true;
}

/// Time the reference deployment grid through runtime::BatchEvaluator with
/// one thread (the strict serial loop) and with the hardware-sized pool,
/// check the two result sets are bitwise identical, and record the
/// measurement as machine-readable BENCH_<name>.json (also echoed to stdout
/// as one line, prefixed "BENCH_JSON ", for log scrapers). Returns the
/// process exit code: 0, or 1 when the parallel path diverged from the
/// serial loop — benches return this from main() so a determinism
/// regression fails the run, not just the JSON.
[[nodiscard]] inline int emit_runtime_json(const char* name) {
  const auto grid = runtime_benchmark_grid();
  const runtime::BatchEvaluator serial({}, runtime::BatchOptions{1});
  const runtime::BatchEvaluator parallel({}, runtime::BatchOptions{0});
  const auto serial_run = serial.run(grid);
  const auto parallel_run = parallel.run(grid);

  bool identical = serial_run.reports.size() == parallel_run.reports.size();
  for (std::size_t i = 0; identical && i < serial_run.reports.size(); ++i)
    identical =
        reports_identical(serial_run.reports[i], parallel_run.reports[i]);

  const double speedup =
      parallel_run.stats.wall_ms > 0
          ? serial_run.stats.wall_ms / parallel_run.stats.wall_ms
          : 0.0;
  char json[512];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"%s\",\"grid_candidates\":%zu,\"threads\":%zu,"
      "\"serial_wall_ms\":%.3f,\"parallel_wall_ms\":%.3f,"
      "\"speedup\":%.3f,\"serial_candidates_per_sec\":%.0f,"
      "\"parallel_candidates_per_sec\":%.0f,\"identical\":%s}",
      name, grid.size(), parallel_run.stats.threads,
      serial_run.stats.wall_ms, parallel_run.stats.wall_ms, speedup,
      serial_run.stats.candidates_per_sec,
      parallel_run.stats.candidates_per_sec, identical ? "true" : "false");

  const std::string path = bench_out_dir() + "/BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  std::printf("BENCH_JSON %s\n", json);
  if (!identical)
    std::fprintf(stderr,
                 "%s: parallel batch diverged from serial loop (see %s)\n",
                 name, path.c_str());
  return identical ? 0 : 1;
}

}  // namespace xr::bench
