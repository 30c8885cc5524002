#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jobs.h"
#include "math/rng.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "recording_transport.h"
#include "runtime/offload_search.h"
#include "runtime/service/coordinator.h"
#include "runtime/service/worker_loop.h"
#include "runtime/shard/worker.h"
#include "stats.h"

namespace xrbench {

namespace fs = std::filesystem;
namespace shard = xr::runtime::shard;
namespace svc = xr::runtime::service;

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kWorkers = 2;
/// Records timed through evaluate_point alone.
constexpr std::size_t kEvaluateSample = 2048;

struct ServiceRun {
  svc::CoordinatorResult result;
  double seconds = 0;
  double start_ms = 0;  ///< on the transport log's clock (traced runs).
};

/// Joins its threads on every exit path.
struct Joiner {
  std::vector<std::thread> threads;
  Joiner() = default;
  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;
  ~Joiner() {
    for (auto& t : threads)
      if (t.joinable()) t.join();
  }
};

/// One request through a coordinator leasing kShards shards to kWorkers
/// in-process workers, each participant on its own FsTransport over
/// `dir`. With `log`, every transport is wrapped in a RecordingTransport.
ServiceRun run_service(const xr::runtime::SweepRequest& request,
                       const std::string& dir, TransportLog* log) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string mail = dir + "/mail";
  svc::FsTransport coordinator_fs(mail);
  std::vector<std::unique_ptr<svc::FsTransport>> worker_fs;
  std::vector<std::unique_ptr<RecordingTransport>> recorders;
  const auto wrap = [&](svc::Transport& inner,
                        const std::string& who) -> svc::Transport& {
    if (!log) return inner;
    recorders.push_back(std::make_unique<RecordingTransport>(inner, *log, who));
    return *recorders.back();
  };
  svc::Transport& coordinator = wrap(coordinator_fs, "coordinator");
  std::vector<svc::Transport*> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    worker_fs.push_back(std::make_unique<svc::FsTransport>(mail));
    workers.push_back(&wrap(*worker_fs.back(), "w" + std::to_string(w)));
  }

  svc::CoordinatorOptions options;
  options.shards = kShards;
  options.shard_dir = dir + "/shards";
  std::vector<std::string> worker_errors(kWorkers);
  std::vector<std::string> span_names(kWorkers);
  ServiceRun out;
  out.start_ms = log ? log->now_ms() : 0.0;
  const auto t0 = Clock::now();
  {
    Joiner joiner;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      span_names[w] = "bench.service.worker[w=w" + std::to_string(w) + "]";
      joiner.threads.emplace_back([&, w] {
        try {
          svc::WorkerLoopOptions worker;
          worker.name = "w" + std::to_string(w);
          std::optional<xr::obs::Span> span;
          if (log) span.emplace(span_names[w].c_str());
          const auto outcome = svc::run_service_worker(*workers[w], worker);
          if (!outcome.shutdown)
            worker_errors[w] = "worker w" + std::to_string(w) +
                               " left without the coordinator's shutdown";
        } catch (const std::exception& e) {
          worker_errors[w] = e.what();
        }
      });
    }
    std::optional<xr::obs::Span> span;
    if (log) span.emplace("bench.service.sweep");
    try {
      out.result = svc::run_coordinator(coordinator, request, options);
    } catch (...) {
      // The workers wait for a shutdown that a failed coordinator never
      // sends; send it so the joins below return.
      for (std::size_t w = 0; w < kWorkers; ++w) {
        try {
          coordinator_fs.send("w" + std::to_string(w), svc::make_shutdown());
        } catch (const std::exception&) {
          // Rethrowing the coordinator's error below matters more.
        }
      }
      throw;
    }
    out.seconds = seconds_since(t0);
  }
  for (const std::string& e : worker_errors)
    if (!e.empty()) throw std::runtime_error("service worker: " + e);
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

SweepJob::SweepJob(std::uint64_t seed, Size size, std::string work_dir)
    : request_(offload_request(seed, size)), work_dir_(std::move(work_dir)) {}

namespace {

SweepJob::ServiceOutput output_of(const svc::CoordinatorResult& r) {
  SweepJob::ServiceOutput out;
  out.summary = r.summary;
  if (r.plan) out.plan = fnv1a(r.plan->to_json().dump());
  out.leases_reassigned = r.leases_reassigned;
  out.quarantined = r.quarantined.size();
  return out;
}

/// The service's outputs must equal the monolithic leg's — the summary by
/// summaries_equivalent, the plan byte for byte — with no lease reassigned.
void check_service(const SweepJob::ServiceOutput& out,
                   const shard::MergedSummary& reference_summary,
                   std::uint64_t reference_plan, Report& report) {
  std::string why;
  if (!shard::summaries_equivalent(out.summary, reference_summary, &why))
    report.fail("offload_sweep: service summary differs from the monolithic "
                "one: " + why);
  if (out.plan != reference_plan)
    report.fail("offload_sweep: service plan is not byte-equal to "
                "plan_offload's");
  if (out.leases_reassigned != 0 || out.quarantined != 0)
    report.fail("offload_sweep: " + std::to_string(out.leases_reassigned) +
                " leases reassigned, " + std::to_string(out.quarantined) +
                " quarantined");
}

}  // namespace

void SweepJob::mono_step(Report& report) {
  report.attempt();
  const auto t0 = Clock::now();
  const auto plan = xr::core::plan_offload(request_, model_);
  mono_ms_.push_back(1000.0 * seconds_since(t0));
  mono_plans_.push_back(fnv1a(plan.to_json().dump()));
}

void SweepJob::service_step(Report& report) {
  report.attempt();
  const std::string dir = work_dir_ + "/service" + std::to_string(runs_++);
  try {
    const ServiceRun run = run_service(request_, dir, nullptr);
    service_s_.push_back(run.seconds);
    service_outputs_.push_back(output_of(run.result));
  } catch (const std::exception& e) {
    report.fail(std::string("offload_sweep: service run threw: ") + e.what());
  }
  fs::remove_all(dir);
}

void SweepJob::finish(Report& report) {
  // Every output against the monolithic leg's: summaries by
  // summaries_equivalent, plans byte for byte.
  const std::uint64_t reference_plan =
      fnv1a(xr::core::plan_offload(request_, model_).to_json().dump());
  const auto reference_summary = xr::runtime::run_request(request_, model_);
  for (const std::uint64_t plan : mono_plans_)
    if (plan != reference_plan)
      report.fail("offload_sweep: a plan_offload run's plan differs");
  for (const ServiceOutput& out : service_outputs_)
    check_service(out, reference_summary, reference_plan, report);
  // The service runs on three threads (coordinator and two workers), so
  // it is reported at its median run like the GT sweep; plan_offload runs
  // on one thread and is reported at its fastest run (see fastest()).
  report.metric("service_sweep_s", median(service_s_), "s");
  report.metric("plan_mono_ms", fastest(mono_ms_), "ms");
  report.note("offload_sweep: " + std::to_string(reference_summary.grid_size) +
              " candidates; " + std::to_string(service_s_.size()) +
              " service runs, median " + std::to_string(median(service_s_)) +
              " s, fastest " + std::to_string(fastest(service_s_)) + " s; " +
              std::to_string(mono_ms_.size()) +
              " plan_offload runs, fastest " +
              std::to_string(fastest(mono_ms_)) + " ms, median " +
              std::to_string(median(mono_ms_)) + " ms");
}

void SweepJob::run_traced(bool primary, Report& report) {
  // Monolithic leg: untraced reference, then traced with the kernel's
  // histograms differenced around it.
  report.attempt(2);
  const std::uint64_t reference_plan =
      fnv1a(xr::core::plan_offload(request_, model_).to_json().dump());
  const auto reference_summary = xr::runtime::run_request(request_, model_);
  const auto mono0 = xr::obs::capture(false).metrics;
  {
    const xr::obs::Span span("bench.offload.plan_offload");
    if (fnv1a(xr::core::plan_offload(request_, model_).to_json().dump()) !=
        reference_plan)
      report.fail("offload_sweep: the traced plan_offload differs");
  }
  const auto mono1 = xr::obs::capture(false).metrics;

  // Service: one untraced run, then one through the recording transport.
  report.attempt(2);
  const std::string untraced_dir = work_dir_ + "/service-untraced";
  const ServiceRun untraced = run_service(request_, untraced_dir, nullptr);
  check_service(output_of(untraced.result), reference_summary, reference_plan,
                report);
  fs::remove_all(untraced_dir);
  const std::string traced_dir = work_dir_ + "/service-traced";
  TransportLog log;
  const auto svc0 = xr::obs::capture(false).metrics;
  const ServiceRun traced = run_service(request_, traced_dir, &log);
  const auto svc1 = xr::obs::capture(false).metrics;
  check_service(output_of(traced.result), reference_summary, reference_plan,
                report);

  // Lease timeline and wire costs from the decorator.
  const auto events = log.events();
  const auto leases = lease_timeline(events);
  std::vector<double> lease_ms;
  double first_grant_ms = INFINITY, last_received_ms = 0;
  for (const LeaseRecord& l : leases) {
    if (l.granted_ms >= 0)
      first_grant_ms = std::min(first_grant_ms, l.granted_ms - traced.start_ms);
    if (l.granted_ms >= 0 && l.completed_ms >= 0)
      lease_ms.push_back(l.completed_ms - l.granted_ms);
    last_received_ms = std::max(last_received_ms, l.received_ms);
  }
  if (leases.size() != kShards || lease_ms.size() != kShards)
    report.fail("offload_sweep: the transport saw " +
                std::to_string(leases.size()) + " lease attempts, " +
                std::to_string(lease_ms.size()) + " completed");
  const double drain_ms =
      traced.start_ms + 1000.0 * traced.seconds - last_received_ms;
  double send_ms = 0, poll_ms = 0;
  std::size_t sends = 0, polls = 0, empty_polls = 0;
  for (const TransportEvent& e : events) {
    if (e.op == TransportOp::kSend) {
      send_ms += e.end_ms - e.start_ms;
      ++sends;
    } else if (e.op == TransportOp::kPoll) {
      poll_ms += e.end_ms - e.start_ms;
      ++polls;
      empty_polls += e.messages.empty();
    }
  }

  // Fold each completed shard stream, then merge the folds.
  report.attempt();
  std::vector<shard::PartialReduction> partials;
  std::vector<double> fold_ms;
  std::string shard0_records;
  for (const LeaseRecord& l : leases) {
    if (l.records_path.empty()) continue;
    const std::string name = "bench.shard.fold[lease=" +
                             std::to_string(l.lease) + ",attempt=" +
                             std::to_string(l.attempt) + "]";
    const auto t0 = Clock::now();
    {
      const xr::obs::Span span(name.c_str());
      partials.push_back(shard::partial_from_records(l.records_path));
    }
    fold_ms.push_back(1000.0 * seconds_since(t0));
    if (l.lease == 0) shard0_records = file_bytes(l.records_path);
  }
  const auto merge_start = Clock::now();
  std::optional<shard::MergedSummary> merged;
  try {
    const xr::obs::Span span("bench.shard.merge");
    merged = shard::merge_partials(partials);
  } catch (const std::exception& e) {
    report.fail(std::string("offload_sweep: merging the folds threw: ") +
                e.what());
  }
  const double merge_ms = 1000.0 * seconds_since(merge_start);
  std::string why;
  if (merged && !shard::summaries_equivalent(*merged, traced.result.summary, &why))
    report.fail("offload_sweep: refolded shards differ from the service: " +
                why);
  fs::remove_all(traced_dir);

  // Shard 0's slice loop, as a worker runs it: resume on, one slice of
  // slice_records (rounded up to the checkpoint chunk) per call.
  report.attempt();
  const std::string replay_stem = work_dir_ + "/replay/shard0";
  fs::remove_all(work_dir_ + "/replay");
  fs::create_directories(work_dir_ + "/replay");
  const auto spec = shard::WorkerSpec::from_request(
      request_, 0, kShards, shard::ShardStrategy::kRange, replay_stem,
      /*resume=*/true);
  const std::size_t chunk = std::max<std::size_t>(spec.chunk_records, 1);
  const std::size_t slice =
      (svc::WorkerLoopOptions{}.slice_records + chunk - 1) / chunk * chunk;
  std::vector<double> slice_ms;
  std::size_t resumed = 0, evaluated = 0;
  std::string replay_records;
  for (std::size_t k = 0;; ++k) {
    const std::string name =
        "bench.shard.slice[lease=0,slice=" + std::to_string(k) + "]";
    const auto t0 = Clock::now();
    shard::WorkerOutcome outcome;
    {
      const xr::obs::Span span(name.c_str());
      outcome = shard::run_worker(spec, slice);
    }
    slice_ms.push_back(1000.0 * seconds_since(t0));
    resumed += outcome.resumed_records;
    evaluated += outcome.evaluated_records;
    if (outcome.complete) {
      replay_records = file_bytes(outcome.records_path);
      break;
    }
    if (outcome.evaluated_records == 0) {
      report.fail("offload_sweep: the slice replay made no progress");
      break;
    }
  }
  // The same shard in one run_worker call: the floor the slices compare to.
  auto oneshot = spec;
  oneshot.output = work_dir_ + "/replay/oneshot0";
  oneshot.resume = false;
  const auto oneshot_start = Clock::now();
  std::string oneshot_records;
  {
    const xr::obs::Span span("bench.shard.oneshot[lease=0]");
    oneshot_records = file_bytes(shard::run_worker(oneshot).records_path);
  }
  const double oneshot_ms = 1000.0 * seconds_since(oneshot_start);
  if (replay_records.empty() || replay_records != shard0_records ||
      oneshot_records != shard0_records)
    report.fail("offload_sweep: a replay's shard 0 stream is not byte-equal "
                "to the service's");
  fs::remove_all(work_dir_ + "/replay");

  // evaluate_point alone, on a seeded sample of records.
  const auto grid = request_.grid.build();
  xr::math::Rng rng = xr::math::Rng(request_.fingerprint()).stream("records");
  std::vector<std::size_t> indices;
  std::vector<xr::core::ScenarioConfig> scenarios;
  for (std::size_t i = 0; i < kEvaluateSample; ++i) {
    indices.push_back(
        std::size_t(rng.uniform_int(0, std::int64_t(grid.size()) - 1)));
    scenarios.push_back(grid.at(indices.back()));
  }
  double latency_sink = 0;
  const auto eval_start = Clock::now();
  {
    const xr::obs::Span span("bench.shard.evaluate_point");
    for (std::size_t i = 0; i < indices.size(); ++i)
      latency_sink += shard::evaluate_point(request_.evaluator, model_,
                                            scenarios[i], indices[i])
                          .report.latency.total;
  }
  const double evaluate_s = seconds_since(eval_start);
  if (!(latency_sink > 0)) report.fail("offload_sweep: evaluate_point read zero");

  const auto delta = [&](const char* name) {
    return double(counter_value(svc1, name) - counter_value(svc0, name));
  };
  const auto hist_mean = [&](const char* name) {
    const HistogramTotals a = histogram_totals(mono0, name),
                          b = histogram_totals(mono1, name);
    return b.count > a.count ? (b.sum - a.sum) / double(b.count - a.count)
                             : NAN;
  };
  std::vector<double> sorted_lease_ms = lease_ms;
  std::sort(sorted_lease_ms.begin(), sorted_lease_ms.end());
  report.metric("service.first_grant_ms", first_grant_ms, "ms");
  report.metric("service.lease_ms.p50", median(lease_ms), "ms");
  report.metric("service.lease_ms.max",
                sorted_lease_ms.empty() ? NAN : sorted_lease_ms.back(), "ms");
  for (std::size_t i = 0; i < kShards; ++i)
    report.metric("service.lease_ms.lease" + std::to_string(i),
                  i < leases.size() && leases[i].completed_ms >= 0
                      ? leases[i].completed_ms - leases[i].granted_ms
                      : NAN,
                  "ms");
  report.metric("service.drain_ms", drain_ms, "ms");
  report.metric("service.transport.send_us",
                sends ? 1000.0 * send_ms / double(sends) : NAN, "us");
  report.metric("service.transport.poll_us",
                polls ? 1000.0 * poll_ms / double(polls) : NAN, "us");
  report.metric("service.transport.messages", double(sends), "count");
  report.metric("service.transport.empty_poll_ratio",
                polls ? double(empty_polls) / double(polls) : NAN, "ratio");
  const double slices = delta("service.worker.slices");
  report.metric("service.worker.heartbeats_per_slice",
                delta("service.worker.heartbeats_sent") / slices, "ratio");
  report.metric("shard.slices", slices, "count");
  report.metric("shard.checkpoint_writes",
                delta("shard.worker.checkpoint_writes"), "count");
  report.metric("shard.sink.bytes_per_record",
                delta("shard.sink.binary.bytes") /
                    delta("shard.sink.binary.records"),
                "B");
  report.metric("shard.slice_ms.mean", mean(slice_ms), "ms");
  report.metric("shard.slice_ms.last", slice_ms.back(), "ms");
  report.metric("shard.rescan_per_record",
                double(resumed) / double(std::max<std::size_t>(evaluated, 1)),
                "ratio");
  report.metric("shard.oneshot_ms", oneshot_ms, "ms");
  report.metric("shard.fold_ms", mean(fold_ms), "ms");
  report.metric("shard.merge_ms", merge_ms, "ms");
  report.metric("core.evaluate_point_us",
                1e6 * evaluate_s / double(indices.size()), "us");
  report.metric("runtime.kernel.mono_prepare_ms",
                hist_mean("serving.kernel.prepare_ms"), "ms");
  report.metric("runtime.kernel.mono_run_ms", hist_mean("serving.kernel.run_ms"),
                "ms");
  report.metric("runtime.kernel.mono_table_entries",
                gauge_value(mono1, "serving.kernel.table_entries"), "count");
  if (primary)
    report.metric("trace_overhead_pct",
                  100.0 * (traced.seconds - untraced.seconds) / untraced.seconds,
                  "%");
  report.note("offload_sweep traced: " + std::to_string(slice_ms.size()) +
              " replayed slices of " + std::to_string(slice) + " records, " +
              std::to_string(sends) + " sends, " + std::to_string(polls) +
              " polls");
}

}  // namespace xrbench
