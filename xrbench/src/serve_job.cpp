#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "jobs.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "runtime/decision_batch.h"
#include "runtime/offload_search.h"
#include "runtime/thread_pool.h"
#include "stats.h"

namespace xrbench {

namespace rt = xr::runtime;

namespace {

/// 1311 blocks of the mix: 65,550 queries, cycled when a run serves more.
constexpr std::size_t kStreamBlocks = 1311;
/// The traced run serves at most this many queries per pass (one span each).
constexpr std::size_t kMaxTracedQueries = 20'000;
/// Misses whose steps are replayed one by one.
constexpr std::size_t kMissReplays = 32;
/// Keys timed through exact_cell / nearest_cell alone.
constexpr std::size_t kLookupKeys = 4096;
/// Threads computing reference plans (outside the timed region).
constexpr std::size_t kCheckThreads = 4;

Tier tier_of(rt::PlanSource source) {
  switch (source) {
    case rt::PlanSource::kExactHit: return Tier::kExact;
    case rt::PlanSource::kNearestHit: return Tier::kSnap;
    case rt::PlanSource::kComputed: return Tier::kComputed;
  }
  return Tier::kComputed;
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kExact: return "exact";
    case Tier::kSnap: return "snap";
    case Tier::kComputed: return "computed";
  }
  return "computed";
}

std::uint64_t plan_hash(const xr::core::OffloadPlan& plan) {
  return fnv1a(plan.to_json().dump());
}

double ms_of(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

ServeJob::ServeJob(std::uint64_t seed, Size size) : spec_(index_spec(size)) {
  const auto t0 = Clock::now();
  index_.emplace(rt::OffloadPlanIndex::build(spec_, model_));
  build_ms_ = 1000.0 * seconds_since(t0);
  stream_ = make_query_stream(spec_, seed, kStreamBlocks);
  reference_.assign(stream_.size(), std::nullopt);
}

rt::SweepRequest ServeJob::miss_request(const std::vector<double>& key) const {
  // The scenario serve() materializes on a miss: the base plus a one-value
  // axis per knob, through the grid's own appliers.
  xr::core::ScenarioConfig scenario = spec_.scenarios.base_config();
  for (std::size_t k = 0; k < key.size(); ++k) {
    rt::AxisSpec point;
    point.knob = spec_.scenarios.axes[k].knob;
    point.numbers = {key[k]};
    rt::axis_from_spec(point).points.front().apply(scenario);
  }
  return xr::core::offload_search_request(scenario, spec_.space, spec_.alpha);
}

void ServeJob::serve(Pass& pass, std::size_t first, double budget_s,
                     std::size_t max_queries, bool traced, Report& report) {
  std::vector<double> key;
  std::string name;
  const auto start = Clock::now();
  for (std::size_t q = first;
       (max_queries == 0 || q < first + max_queries) &&
       seconds_since(start) < budget_s;
       ++q) {
    const std::size_t pos = q % stream_.size();
    stream_.key_into(pos, key);
    if (traced) name = "bench.serve.query[q=" + std::to_string(q) + "]";
    const auto t0 = Clock::now();
    std::optional<xr::obs::Span> span;
    if (traced) span.emplace(name.c_str());
    const auto result = index_->serve(key, model_);
    span.reset();
    const auto t1 = Clock::now();
    pass.latency_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++pass.queries;
    report.attempt();

    const Tier want = stream_.tiers[pos];
    const Tier got = tier_of(result.source);
    ++(got == Tier::kExact ? pass.exact
       : got == Tier::kSnap ? pass.snap
                            : pass.computed);
    if (got != want) {
      report.fail("plan_serve: query " + std::to_string(q) + " served as " +
                  tier_name(got) + ", generated as " + tier_name(want));
      continue;
    }
    if (want != Tier::kComputed && result.cell != stream_.cells[pos]) {
      report.fail("plan_serve: query " + std::to_string(q) +
                  " resolved to cell " + std::to_string(result.cell) +
                  " instead of " + std::to_string(stream_.cells[pos]));
      continue;
    }
    if (want == Tier::kComputed || stream_.sampled[pos])
      pass.answers.push_back({pos, plan_hash(result.plan)});
  }
}

void ServeJob::check(const Pass& pass, Report& report) {
  std::vector<std::size_t> todo;
  std::vector<char> queued(stream_.size(), 0);
  for (const Answer& a : pass.answers)
    if (!reference_[a.position] && !queued[a.position]) {
      queued[a.position] = 1;
      todo.push_back(a.position);
    }
  rt::ThreadPool pool(kCheckThreads);
  std::vector<std::string> errors(todo.size());
  const auto hashes = pool.map(todo.size(), [&](std::size_t j) {
    const std::size_t pos = todo[j];
    try {
      if (stream_.tiers[pos] != Tier::kComputed)
        return plan_hash(index_->plan_at(stream_.cells[pos]));
      std::vector<double> key;
      stream_.key_into(pos, key);
      auto request = miss_request(key);
      request.execution.threads = 1;  // never changes values
      return plan_hash(xr::core::plan_offload(request, model_));
    } catch (const std::exception& e) {
      errors[j] = e.what();
      return std::uint64_t{0};
    }
  });
  for (std::size_t j = 0; j < todo.size(); ++j) {
    if (!errors[j].empty())
      report.fail("plan_serve: reference plan for query position " +
                  std::to_string(todo[j]) + " threw: " + errors[j]);
    else
      reference_[todo[j]] = hashes[j];
  }
  for (const Answer& a : pass.answers)
    if (reference_[a.position] && *reference_[a.position] != a.hash)
      report.fail("plan_serve: the answer at stream position " +
                  std::to_string(a.position) + " (" +
                  tier_name(stream_.tiers[a.position]) +
                  ") is not byte-equal to its reference plan");
}

void ServeJob::step(double slice_s, Report& report) {
  pass_.latency_us.clear();
  serve(pass_, pass_.queries, slice_s, 0, false, report);
  const std::vector<double>& us = pass_.latency_us;
  if (us.empty()) return;
  slices_.push_back(
      {std::accumulate(us.begin(), us.end(), 0.0) / double(us.size()),
       median(us), percentile(us, 100)});
}

void ServeJob::finish(Report& report) {
  const Pass& pass = pass_;
  check(pass, report);

  // Each step's slice of the stream gives a throughput (queries over summed
  // serve() time) and a p99 latency, counted only when at least 10 of the
  // slice's samples lie beyond it; each is reported at the fastest slice.
  std::vector<double> us_per_query, p50_us, p99_ms;
  std::size_t samples = 0, beyond = 0;
  for (const Slice& slice : slices_) {
    us_per_query.push_back(slice.us_per_query);
    p50_us.push_back(slice.p50_us);
    if (!slice.p99 || slice.p99->beyond < 10) continue;
    p99_ms.push_back(slice.p99->value / 1000.0);
    samples += slice.p99->samples;
    beyond += slice.p99->beyond;
  }
  if (p99_ms.empty())
    report.fail("plan_serve: no serving slice has 10 samples beyond its p99");
  report.metric("serve_qps", 1e6 / fastest(us_per_query), "queries/s");
  report.metric("serve_p99_ms", fastest(p99_ms), "ms");
  report.note("plan_serve: " + std::to_string(pass.queries) + " queries (" +
              std::to_string(pass.exact) + " exact, " +
              std::to_string(pass.snap) + " snap, " +
              std::to_string(pass.computed) + " computed), " +
              std::to_string(pass.answers.size()) + " answers checked; " +
              std::to_string(slices_.size()) + " slices: median " +
              std::to_string(1e6 / median(us_per_query)) +
              " queries/s; p50 fastest " + std::to_string(fastest(p50_us)) +
              " us, median " + std::to_string(median(p50_us)) +
              " us; p99 over " + std::to_string(p99_ms.size()) + " slices (" +
              std::to_string(samples) + " samples, " +
              std::to_string(beyond) + " beyond), median " +
              std::to_string(median(p99_ms)) + " ms");
}

void ServeJob::run_traced(double budget_s, bool primary, Report& report) {
  // A warm-up pass, an untraced pass, then the same queries again with one
  // span each; the warm-up keeps first-touch costs out of the comparison.
  Pass warm, untraced, traced;
  serve(warm, 0, 0.15 * budget_s, kMaxTracedQueries, false, report);
  serve(untraced, 0, INFINITY, warm.queries, false, report);
  const auto before = xr::obs::capture(false).metrics;
  serve(traced, 0, INFINITY, untraced.queries, true, report);
  const auto after = xr::obs::capture(false).metrics;
  check(untraced, report);
  check(traced, report);
  bool same = untraced.answers.size() == traced.answers.size();
  for (std::size_t i = 0; same && i < traced.answers.size(); ++i)
    same = untraced.answers[i].position == traced.answers[i].position &&
           untraced.answers[i].hash == traced.answers[i].hash;
  if (!same)
    report.fail("plan_serve: the traced pass's answers differ from the "
                "untraced pass's");

  std::vector<double> exact_us, snap_us, computed_us;
  for (std::size_t q = 0; q < traced.queries; ++q) {
    const Tier t = stream_.tiers[q % stream_.size()];
    (t == Tier::kExact ? exact_us : t == Tier::kSnap ? snap_us : computed_us)
        .push_back(traced.latency_us[q]);
  }
  const auto kernel_prepare = [&](const auto& s) {
    return histogram_totals(s, "serving.kernel.prepare_ms");
  };
  const auto kernel_run = [&](const auto& s) {
    return histogram_totals(s, "serving.kernel.run_ms");
  };
  const HistogramTotals p0 = kernel_prepare(before), p1 = kernel_prepare(after);
  const HistogramTotals r0 = kernel_run(before), r1 = kernel_run(after);

  // The lookups alone, on keys built beforehand.
  std::vector<std::vector<double>> exact_keys, snap_keys;
  std::vector<std::size_t> snap_cells;
  for (std::size_t pos = 0; pos < stream_.size() &&
                            (exact_keys.size() < kLookupKeys ||
                             snap_keys.size() < kLookupKeys);
       ++pos) {
    std::vector<double> key;
    stream_.key_into(pos, key);
    if (stream_.tiers[pos] == Tier::kExact && exact_keys.size() < kLookupKeys)
      exact_keys.push_back(std::move(key));
    else if (stream_.tiers[pos] == Tier::kSnap &&
             snap_keys.size() < kLookupKeys) {
      snap_keys.push_back(std::move(key));
      snap_cells.push_back(stream_.cells[pos]);
    }
  }
  const auto time_lookups = [&](const char* span_name, auto&& lookup,
                                const auto& keys) {
    const xr::obs::Span span(span_name);
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    do {
      for (std::size_t i = 0; i < keys.size(); ++i) lookup(i);
      calls += keys.size();
    } while (seconds_since(t0) < 0.1);
    return 1e9 * seconds_since(t0) / double(calls);
  };
  std::size_t lookup_misses = 0;
  report.attempt(2);
  const double exact_ns = time_lookups(
      "bench.plan_index.exact_cell",
      [&](std::size_t i) {
        lookup_misses += !index_->exact_cell(exact_keys[i]).has_value();
      },
      exact_keys);
  const double nearest_ns = time_lookups(
      "bench.plan_index.nearest_cell",
      [&](std::size_t i) {
        lookup_misses += index_->nearest_cell(snap_keys[i]).cell != snap_cells[i];
      },
      snap_keys);
  if (lookup_misses)
    report.fail("plan_serve: exact_cell/nearest_cell missed " +
                std::to_string(lookup_misses) + " generated keys");

  // The steps of a miss, one span each, on the traced pass's misses.
  std::vector<double> replay_prepare, replay_run, replay_plan, replay_total;
  for (std::size_t q = 0; q < traced.queries && replay_total.size() < kMissReplays;
       ++q) {
    const std::size_t pos = q % stream_.size();
    if (stream_.tiers[pos] != Tier::kComputed) continue;
    report.attempt();
    const std::string id = "[q=" + std::to_string(q) + "]";
    const std::string miss_name = "bench.miss" + id,
                      prepare_name = "bench.miss.prepare" + id,
                      run_name = "bench.miss.run" + id,
                      plan_name = "bench.miss.plan" + id;
    std::vector<double> key;
    stream_.key_into(pos, key);
    const auto t0 = Clock::now();
    const xr::obs::Span miss_span(miss_name.c_str());
    const auto request = miss_request(key);
    const auto t1 = Clock::now();
    auto kernel = [&] {
      const xr::obs::Span span(prepare_name.c_str());
      return rt::DecisionBatchKernel::prepare(request.grid, model_);
    }();
    const auto t2 = Clock::now();
    if (!kernel) {
      report.fail("plan_serve: the kernel refused a miss's grid");
      continue;
    }
    const auto summary = [&] {
      const xr::obs::Span span(run_name.c_str());
      return kernel->run_summary(request.fingerprint(), request.execution);
    }();
    const auto t3 = Clock::now();
    const auto plan = [&] {
      const xr::obs::Span span(plan_name.c_str());
      return xr::core::offload_plan_from_summary(request, summary, model_);
    }();
    const auto t4 = Clock::now();
    replay_prepare.push_back(ms_of(t2 - t1));
    replay_run.push_back(ms_of(t3 - t2));
    replay_plan.push_back(ms_of(t4 - t3));
    replay_total.push_back(ms_of(t4 - t0));
    if (!reference_[pos] || plan_hash(plan) != *reference_[pos])
      report.fail("plan_serve: the replayed miss at query " +
                  std::to_string(q) + " differs from the served plan");
  }

  const auto totals = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const auto per = [](double sum, std::uint64_t n) {
    return n ? sum / double(n) : NAN;
  };
  report.metric("runtime.plan_index.lookup_ns", exact_ns, "ns");
  report.metric("runtime.plan_index.nearest_ns", nearest_ns, "ns");
  report.metric("runtime.plan_index.exact_us", median(exact_us), "us");
  report.metric("runtime.plan_index.snap_us", median(snap_us), "us");
  report.metric("runtime.plan_index.computed_ms", median(computed_us) / 1000.0,
                "ms");
  report.metric("runtime.kernel.prepare_ms",
                per(p1.sum - p0.sum, p1.count - p0.count), "ms");
  report.metric("runtime.kernel.run_ms", per(r1.sum - r0.sum, r1.count - r0.count),
                "ms");
  report.metric("runtime.kernel.table_entries",
                gauge_value(after, "serving.kernel.table_entries"), "count");
  report.metric("runtime.kernel.miss_prepare_share",
                totals(replay_prepare) / totals(replay_total), "ratio");
  report.metric("core.plan_from_summary_ms", median(replay_plan), "ms");
  report.metric("runtime.plan_index.build_ms_per_cell",
                build_ms_ / double(index_->size()), "ms");
  report.metric("runtime.plan_index.tier_mix.exact", double(traced.exact),
                "count");
  report.metric("runtime.plan_index.tier_mix.snap", double(traced.snap),
                "count");
  report.metric("runtime.plan_index.tier_mix.computed", double(traced.computed),
                "count");
  if (primary) {
    const double u = totals(untraced.latency_us), t = totals(traced.latency_us);
    report.metric("trace_overhead_pct", 100.0 * (t - u) / u, "%");
  }
  std::string line = "plan_serve traced: " + std::to_string(traced.queries) +
                     " queries per pass, " +
                     std::to_string(replay_total.size()) +
                     " misses replayed (prepare " +
                     std::to_string(median(replay_prepare)) + " ms, run " +
                     std::to_string(median(replay_run)) + " ms, plan " +
                     std::to_string(median(replay_plan)) +
                     " ms); untraced pass p50 " +
                     std::to_string(median(untraced.latency_us)) + " us";
  if (const auto tail = tail_percentile(untraced.latency_us))
    line += ", tail p" + std::to_string(tail->percent()) + " " +
            std::to_string(tail->value / 1000.0) + " ms (" +
            std::to_string(tail->samples) + " samples, " +
            std::to_string(tail->beyond) + " beyond)";
  report.note(line);
}

}  // namespace xrbench
