#include <bit>
#include <cmath>
#include <exception>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "jobs.h"
#include "math/rng.h"
#include "obs/span.h"
#include "runtime/batch_evaluator.h"
#include "runtime/shard/evaluator.h"
#include "stats.h"
#include "xrsim/ground_truth.h"
#include "xrsim/power_monitor.h"

namespace xrbench {

namespace shard = xr::runtime::shard;

namespace {

/// Points whose simulator run and monitor are replayed serially.
constexpr std::size_t kReplayPoints = 24;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One frame's power profile for the monitor replay: the simulator's
/// interval order and durations. The power levels are representative —
/// the monitor's cost depends on the durations, not on the draw.
std::vector<xr::xrsim::PowerInterval> frame_profile(
    const xr::xrsim::FrameRecord& r, bool local) {
  constexpr double kBase = 368.0, kCompute = 2000.0, kTx = 800.0,
                   kRx = 300.0, kIdle = 150.0;
  std::vector<xr::xrsim::PowerInterval> profile;
  const auto add = [&](double ms, double mw) {
    if (ms > 0) profile.push_back({ms, mw + kBase});
  };
  add(r.frame_generation_ms, kCompute);
  add(r.volumetric_ms, kCompute);
  add(r.external_ms, kRx);
  add(r.conversion_or_encode_ms, kCompute);
  if (local) {
    add(r.inference_ms, kCompute);
  } else {
    add(r.transmission_ms, kTx);
    add(r.inference_ms, kIdle);
    add(r.handoff_ms, kTx);
  }
  add(r.rendering_ms, kCompute);
  return profile;
}

}  // namespace

GtJob::GtJob(std::uint64_t seed, Size size)
    : seed_(seed),
      request_(gt_request(seed, size)),
      grid_(request_.grid.build()) {}

std::string GtJob::check(const shard::MergedSummary& s) const {
  if (s.evaluated != grid_.size() || !s.gt)
    return "summary covers " + std::to_string(s.evaluated) + " of " +
           std::to_string(grid_.size()) + " points";
  const double error = s.gt->mean_latency_error_pct();
  if (!(error >= 1.0 && error <= 6.0))
    return "mean GT latency error " + std::to_string(error) +
           "% is outside 1-6%";
  const auto measure = [&](std::size_t i) {
    return *shard::evaluate_point(request_.evaluator, model_, grid_.at(i), i)
                .gt;
  };
  if (!same_bits(measure(s.best_latency_index).mean_latency_ms,
                 s.min_latency_ms))
    return "best-latency point " + std::to_string(s.best_latency_index) +
           " re-evaluates differently";
  if (!same_bits(measure(s.best_energy_index).mean_energy_mj,
                 s.min_energy_mj))
    return "best-energy point " + std::to_string(s.best_energy_index) +
           " re-evaluates differently";
  for (const shard::ParetoPoint& p : s.pareto) {
    const auto m = measure(p.index);
    if (!same_bits(m.mean_latency_ms, p.latency_ms) ||
        !same_bits(m.mean_energy_mj, p.energy_mj))
      return "Pareto point " + std::to_string(p.index) +
             " re-evaluates differently";
  }
  return "";
}

void GtJob::step(Report& report) {
  report.attempt();
  const auto t0 = Clock::now();
  shard::MergedSummary summary;
  try {
    summary = xr::runtime::run_request(request_, model_);
  } catch (const std::exception& e) {
    report.fail(std::string("validate_gt: sweep threw: ") + e.what());
    return;
  }
  sweep_s_.push_back(seconds_since(t0));
  std::string bytes = summary_bytes(summary);
  if (!first_) {
    first_ = std::move(summary);
    first_bytes_ = std::move(bytes);
  } else if (bytes != first_bytes_) {
    report.fail("validate_gt: a repeated sweep's summary differs");
  }
}

void GtJob::finish(Report& report) const {
  if (first_)
    if (const std::string why = check(*first_); !why.empty())
      report.fail("validate_gt: " + why);
  const double frames =
      double(grid_.size() * request_.evaluator.frames_per_point);
  // A sweep runs on three pool threads, so its wall time already averages
  // the interference on three vCPUs: the median sweep, not the fastest.
  report.metric("gt_frames_per_s", frames / median(sweep_s_), "frames/s");
  report.note("validate_gt: " + std::to_string(sweep_s_.size()) +
              " sweeps of " + std::to_string(grid_.size()) + " points x " +
              std::to_string(request_.evaluator.frames_per_point) +
              " frames, median " +
              std::to_string(frames / median(sweep_s_)) +
              " frames/s, fastest " +
              std::to_string(frames / fastest(sweep_s_)) + " frames/s");
}

void GtJob::run_traced(double budget_s, bool primary, Report& report) const {
  const std::size_t n = grid_.size();
  std::vector<std::string> names(n);
  for (std::size_t i = 0; i < n; ++i)
    names[i] = "bench.gt.point[i=" + std::to_string(i) + "]";

  // Untraced run_request sweeps alternate with traced replays of its
  // request.map stage: the same pool, one span and one timer per point.
  std::vector<double> untraced_s, traced_s, utilization;
  std::vector<shard::EvaluatedPoint> points;
  std::string reference;
  std::optional<shard::MergedSummary> summary;
  const auto start = Clock::now();
  for (std::size_t round = 0;
       round < 2 || seconds_since(start) < 0.6 * budget_s; ++round) {
    report.attempt();
    auto t0 = Clock::now();
    const auto untraced = xr::runtime::run_request(request_, model_);
    untraced_s.push_back(seconds_since(t0));
    if (round == 0) {
      reference = summary_bytes(untraced);
      summary = untraced;
      if (const std::string why = check(untraced); !why.empty())
        report.fail("validate_gt: " + why);
    }

    report.attempt();
    std::vector<std::int64_t> point_ns(n);
    std::vector<std::thread::id> runner(n);
    t0 = Clock::now();
    const xr::obs::Span sweep_span("bench.gt.sweep");
    const xr::runtime::BatchEvaluator engine(
        model_, {request_.execution.threads, request_.execution.grain});
    const auto map_start = Clock::now();
    points = engine.map(n, [&](std::size_t i) {
      const xr::obs::Span span(names[i].c_str());
      const auto p0 = Clock::now();
      auto point =
          shard::evaluate_point(request_.evaluator, model_, grid_.at(i), i);
      point_ns[i] = (Clock::now() - p0).count();
      runner[i] = std::this_thread::get_id();
      return point;
    });
    const double map_ns = double((Clock::now() - map_start).count());
    shard::PartialReduction partial(
        {0, 1, shard::ShardStrategy::kRange, n, request_.fingerprint()},
        /*ground_truth=*/true);
    for (std::size_t i = 0; i < n; ++i)
      partial.add(i, points[i].gt->mean_latency_ms,
                  points[i].gt->mean_energy_mj, &*points[i].gt);
    partial.threads = engine.threads();
    const auto traced = shard::merge_partials({partial});
    traced_s.push_back(seconds_since(t0));
    if (summary_bytes(traced) != reference)
      report.fail("validate_gt: the traced sweep's summary differs from the "
                  "untraced one");

    double busy_ns = 0;
    for (const std::int64_t ns : point_ns) busy_ns += double(ns);
    const std::set<std::thread::id> runners(runner.begin(), runner.end());
    utilization.push_back(busy_ns / (double(runners.size()) * map_ns));
  }

  // Serial replays of a seeded sample: the simulator with per-frame records
  // kept, then the monitor alone on each frame's intervals.
  xr::math::Rng rng = xr::math::Rng(seed_).stream("validate_gt.replay");
  std::set<std::size_t> sample;
  while (sample.size() < std::min(kReplayPoints, n))
    sample.insert(std::size_t(rng.uniform_int(0, std::int64_t(n) - 1)));
  double sim_s = 0, monitor_s = 0, energy_sink = 0;
  std::size_t frames = 0, samples = 0;
  for (const std::size_t i : sample) {
    report.attempt();
    const std::string id = "[i=" + std::to_string(i) + "]";
    xr::xrsim::GroundTruthConfig cfg;
    cfg.seed =
        shard::point_seed(request_.evaluator.seed, i, request_.evaluator.pass);
    cfg.frames = request_.evaluator.frames_per_point;
    cfg.record_frames = true;
    const xr::core::ScenarioConfig scenario = grid_.at(i);
    const xr::xrsim::GroundTruthSimulator sim(cfg);
    const std::string sim_name = "bench.gt.simulate" + id;
    auto t0 = Clock::now();
    xr::xrsim::GroundTruthResult result;
    {
      const xr::obs::Span span(sim_name.c_str());
      result = sim.run(scenario);
    }
    sim_s += seconds_since(t0);
    if (!same_bits(result.mean_latency_ms(), points[i].gt->mean_latency_ms) ||
        !same_bits(result.mean_energy_mj(), points[i].gt->mean_energy_mj))
      report.fail("validate_gt: the simulator replay of point " +
                  std::to_string(i) + " differs from the sweep");

    const bool local =
        scenario.inference.placement == xr::core::InferencePlacement::kLocal;
    std::vector<std::vector<xr::xrsim::PowerInterval>> profiles;
    for (const auto& record : result.frames) {
      profiles.push_back(frame_profile(record, local));
      double total_ms = 0;
      for (const auto& seg : profiles.back()) total_ms += seg.duration_ms;
      samples += std::size_t(
                     std::floor(total_ms / cfg.monitor.sampling_interval_ms)) +
                 1;
    }
    frames += profiles.size();
    const xr::xrsim::PowerMonitor monitor(cfg.monitor);
    xr::math::Rng noise = xr::math::Rng(cfg.seed).stream("bench.monitor");
    const std::string monitor_name = "bench.gt.monitor" + id;
    t0 = Clock::now();
    {
      const xr::obs::Span span(monitor_name.c_str());
      for (const auto& profile : profiles)
        energy_sink += monitor.measure_energy_mj(profile, noise);
    }
    monitor_s += seconds_since(t0);
  }
  if (!(energy_sink > 0)) report.fail("validate_gt: monitor replay read no energy");

  // The analytical model alone, on pre-built scenarios.
  std::vector<xr::core::ScenarioConfig> scenarios;
  for (std::size_t i = 0; i < n; ++i) scenarios.push_back(grid_.at(i));
  std::size_t evaluations = 0;
  double latency_sink = 0;
  const auto eval_start = Clock::now();
  {
    const xr::obs::Span span("bench.core.evaluate");
    do {
      for (const auto& s : scenarios)
        latency_sink += model_.evaluate(s).latency.total;
      evaluations += scenarios.size();
    } while (seconds_since(eval_start) < 0.2);
  }
  const double evaluate_s = seconds_since(eval_start);
  if (!(latency_sink > 0)) report.fail("validate_gt: model evaluated to zero");

  const double frames_d = double(std::max<std::size_t>(frames, 1));
  report.metric("xrsim.gt.us_per_frame", 1e6 * sim_s / frames_d, "us");
  report.metric("xrsim.monitor.us_per_frame", 1e6 * monitor_s / frames_d,
                "us");
  report.metric("xrsim.monitor.samples_per_frame", double(samples) / frames_d,
                "count");
  report.metric("core.evaluate.us", 1e6 * evaluate_s / double(evaluations),
                "us");
  report.metric("runtime.pool.utilization", mean(utilization), "ratio");
  const bool have_gt = summary && summary->gt;
  report.metric("testbed.gt_latency_error_pct",
                have_gt ? summary->gt->mean_latency_error_pct() : NAN, "%");
  report.metric("testbed.gt_energy_error_pct",
                have_gt ? summary->gt->mean_energy_error_pct() : NAN, "%");
  if (primary)
    report.metric("trace_overhead_pct",
                  100.0 * (median(traced_s) - median(untraced_s)) /
                      median(untraced_s),
                  "%");
  report.note("validate_gt traced: " + std::to_string(untraced_s.size()) +
              " untraced + traced sweep pairs, " + std::to_string(frames) +
              " frames replayed over " + std::to_string(sample.size()) +
              " points");
}

}  // namespace xrbench
