// xrbench — the repository benchmark.
//
//   xrbench --workload validate_gt|plan_serve|offload_sweep --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//
// One process drives the xr library in-process (at most 4 busy threads).
// Every run sets up and measures all three user jobs — a ground-truth
// validation sweep, plan serving from a precomputed index, and an offload
// search through the elastic sweep service — so every workload reports
// every metric; the named workload runs its own job at full size for 60%
// of the --seconds budget and the other two at canary size for 20% each.
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
// run that prints the per-layer metrics and writes the span ring and
// registry as an "xr.obs.snapshot.v1" document (with its
// "xr.obs.trace.v1" trace) to DIR/traces/<workload>.obs.json, which
// tools/obs_dump renders. The last stdout line is the result object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Exit status 2: bad arguments, or a build or environment in which the
// benchmark refuses to run (telemetry compiled out, fault schedule set).
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "jobs.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "stats.h"

namespace {

using namespace xrbench;
namespace fs = std::filesystem;

constexpr const char* kWorkloads[] = {"validate_gt", "plan_serve",
                                      "offload_sweep"};
/// Set-up is repeated and its median reported (work moved into set-up
/// shows in setup_s).
constexpr int kSetupRepeats = 3;
constexpr double kPrimaryShare = 0.6;
constexpr double kCanaryShare = 0.2;
/// Share of offload_sweep's time spent on the monolithic leg.
constexpr double kMonoShare = 0.1;
/// Queries are served in slices of this many seconds between other steps.
constexpr double kServeSlice_s = 0.2;
constexpr std::size_t kTraceCapacity = 1u << 18;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build";
};

void usage() {
  std::fprintf(stderr,
               "usage: xrbench --workload validate_gt|plan_serve|offload_sweep"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = false;
        for (const char* w : kWorkloads) have_workload |= value == w;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !(args.seconds > 0)) return std::nullopt;
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Per-process work directory, removed on every exit path.
struct WorkDir {
  std::string path;
  explicit WorkDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  if (!xr::obs::kEnabled) {
    std::fprintf(stderr,
                 "xrbench: refusing to run a build with XR_OBS_DISABLED: the "
                 "per-layer counters would read zero\n");
    return 2;
  }
  if (std::getenv("XR_FAULT_SCHEDULE")) {
    std::fprintf(stderr,
                 "xrbench: refusing to run with XR_FAULT_SCHEDULE set: "
                 "injected faults would be measured as the system\n");
    return 2;
  }

  try {
    const WorkDir work(args->out_dir + "/work/" +
                             std::to_string(::getpid()));
    const auto size_of = [&](const char* job) {
      return args->workload == job ? Size::kFull : Size::kCanary;
    };
    const auto share_of = [&](const char* job) {
      return args->workload == job ? kPrimaryShare : kCanaryShare;
    };
    if (args->trace) {
      xr::obs::set_trace_capacity(kTraceCapacity);
      xr::obs::clear_trace();
    }

    Report report;
    std::optional<GtJob> gt;
    std::optional<ServeJob> serve;
    std::optional<SweepJob> sweep;
    std::vector<double> setup_s;
    for (int i = 0; i < (args->trace ? 1 : kSetupRepeats); ++i) {
      gt.reset();
      serve.reset();
      sweep.reset();
      const auto t0 = Clock::now();
      gt.emplace(args->seed, size_of("validate_gt"));
      serve.emplace(args->seed, size_of("plan_serve"));
      sweep.emplace(args->seed, size_of("offload_sweep"), work.path);
      setup_s.push_back(seconds_since(t0));
    }

    if (!args->trace) {
      report.metric("setup_s", median(setup_s), "s");
      // Interleave the jobs' steps over the whole run: always run the step
      // whose job is furthest behind its share of the time used.
      struct Task {
        double share;
        std::size_t min_steps;
        std::function<void()> step;
        double used_s = 0;
        std::size_t steps = 0;
      };
      const double mono = kMonoShare * share_of("offload_sweep");
      std::vector<Task> tasks = {
          {share_of("validate_gt"), 3, [&] { gt->step(report); }},
          {share_of("plan_serve"), 1,
           [&] { serve->step(kServeSlice_s, report); }},
          {mono, 5, [&] { sweep->mono_step(report); }},
          {share_of("offload_sweep") - mono, 3,
           [&] { sweep->service_step(report); }},
      };
      const auto start = Clock::now();
      for (;;) {
        const bool time_left = seconds_since(start) < args->seconds;
        Task* next = nullptr;
        for (Task& t : tasks)
          if ((time_left || t.steps < t.min_steps) &&
              (!next || t.used_s / t.share < next->used_s / next->share))
            next = &t;
        if (!next) break;
        const auto t0 = Clock::now();
        next->step();
        next->used_s += seconds_since(t0);
        ++next->steps;
      }
      gt->finish(report);
      serve->finish(report);
      sweep->finish(report);
      report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    } else {
      gt->run_traced(args->seconds * share_of("validate_gt"),
                     args->workload == "validate_gt", report);
      serve->run_traced(args->seconds * share_of("plan_serve"),
                        args->workload == "plan_serve", report);
      sweep->run_traced(args->workload == "offload_sweep", report);

      const xr::obs::Trace trace = xr::obs::capture_trace();
      report.note("trace: " + std::to_string(trace.spans.size()) +
                  " spans, " + std::to_string(trace.dropped) +
                  " dropped; self time by span family:");
      const auto families = family_totals(trace.spans);
      for (std::size_t i = 0; i < families.size() && i < 16; ++i) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-36s %8zu spans %11.1f ms total %11.1f ms self",
                      families[i].family.c_str(), families[i].count,
                      families[i].total_ms, families[i].self_ms);
        report.note(line);
      }
      const std::string trace_dir = args->out_dir + "/traces";
      fs::create_directories(trace_dir);
      xr::obs::write_snapshot_file(
          trace_dir + "/" + args->workload + ".obs.json", true);
    }

    for (const std::string& line : report.notes())
      std::printf("%s\n", line.c_str());
    std::printf("%s\n", report.result_line().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xrbench: %s\n", e.what());
    return 1;
  }
}
