// The three user jobs the benchmark times.
//
// Each job's constructor is its set-up (main times it). The untraced
// end-to-end measurement is a sequence of step() calls — main interleaves
// the steps of all three jobs over the whole run, so every metric samples
// the same stretch of machine time — followed by finish(), which checks
// every output the steps produced and reports the job's metrics. Each
// step is one operation counted in the Report; a failed check is a failed
// operation. run_traced() is the separate traced run that derives the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/framework.h"
#include "inputs.h"
#include "report.h"
#include "runtime/plan_index.h"
#include "runtime/sweep.h"
#include "runtime/sweep_request.h"
#include "stats.h"

namespace xrbench {

/// validate_gt: a Fig. 4-style ground-truth validation sweep through
/// runtime::run_request on a dedicated 3-thread pool.
class GtJob {
 public:
  GtJob(std::uint64_t seed, Size size);
  /// One sweep.
  void step(Report& report);
  void finish(Report& report) const;
  /// `primary`: this is the workload's own job, whose traced/untraced
  /// ratio is the run's trace_overhead_pct.
  void run_traced(double budget_s, bool primary, Report& report) const;

 private:
  /// Check a sweep summary: argmins and the Pareto frontier re-evaluated
  /// serially must match bitwise, the mean GT latency error must lie in
  /// 1–6%. Returns the first mismatch, or "" when the summary holds.
  [[nodiscard]] std::string check(
      const xr::runtime::shard::MergedSummary& summary) const;

  std::uint64_t seed_;
  xr::runtime::SweepRequest request_;
  xr::runtime::ScenarioGrid grid_;
  xr::core::XrPerformanceModel model_;
  std::vector<double> sweep_s_;
  std::optional<xr::runtime::shard::MergedSummary> first_;
  std::string first_bytes_;
};

/// plan_serve: a precomputed OffloadPlanIndex answering a seeded query
/// stream from one closed-loop caller.
class ServeJob {
 public:
  ServeJob(std::uint64_t seed, Size size);
  /// The next queries of the stream, for about `slice_s` seconds.
  void step(double slice_s, Report& report);
  void finish(Report& report);
  void run_traced(double budget_s, bool primary, Report& report);

 private:
  /// Served answers kept for checking: the plan document's hash per query.
  struct Answer {
    std::size_t position = 0;
    std::uint64_t hash = 0;
  };
  struct Pass {
    std::vector<double> latency_us;  ///< per query, serve() alone.
    std::vector<Answer> answers;     ///< computed + sampled queries.
    std::size_t queries = 0;
    std::size_t exact = 0, snap = 0, computed = 0;  ///< served tiers.
  };
  /// Serve queries first, first + 1, ... into `pass` until `budget_s` of
  /// wall time or `max_queries` (0 = no cap); with `traced`, each serve()
  /// sits in a span named after the query number.
  void serve(Pass& pass, std::size_t first, double budget_s,
             std::size_t max_queries, bool traced, Report& report);
  /// Check a pass: every computed answer byte-equal to a direct
  /// plan_offload and every sampled exact/snap answer to plan_at(cell).
  /// Reference plans are computed here, outside the timed region.
  void check(const Pass& pass, Report& report);
  [[nodiscard]] xr::runtime::SweepRequest miss_request(
      const std::vector<double>& key) const;

  xr::runtime::PlanIndexSpec spec_;
  double build_ms_ = 0;
  std::optional<xr::runtime::OffloadPlanIndex> index_;
  QueryStream stream_;
  xr::core::XrPerformanceModel model_;
  /// Reference plan hash per stream position, filled by check().
  std::vector<std::optional<std::uint64_t>> reference_;
  /// The untraced run's queries so far; latency_us holds only the
  /// current step's, so resident memory does not grow with throughput.
  Pass pass_;
  /// One step's slice of the stream, summarized when the step ends.
  struct Slice {
    double us_per_query = 0;  ///< summed serve() time ÷ queries.
    double p50_us = 0;
    std::optional<Percentile> p99;  ///< in us.
  };
  std::vector<Slice> slices_;
};

/// offload_sweep: one offload search run monolithically (plan_offload) and
/// through the elastic service (run_coordinator + 2 in-process workers over
/// FsTransport).
class SweepJob {
 public:
  /// `work_dir` holds the service's mailboxes and shard streams.
  SweepJob(std::uint64_t seed, Size size, std::string work_dir);
  /// One monolithic plan_offload.
  void mono_step(Report& report);
  /// One run through the service.
  void service_step(Report& report);
  void finish(Report& report);
  void run_traced(bool primary, Report& report);

  /// What a service run produced that the checks compare.
  struct ServiceOutput {
    xr::runtime::shard::MergedSummary summary;
    std::optional<std::uint64_t> plan;  ///< plan document hash.
    std::size_t leases_reassigned = 0;
    std::size_t quarantined = 0;
  };

 private:
  xr::runtime::SweepRequest request_;
  std::string work_dir_;
  xr::core::XrPerformanceModel model_;
  std::vector<double> mono_ms_, service_s_;
  /// Outputs of the monolithic (plan document hashes) and service runs,
  /// checked in finish().
  std::vector<std::uint64_t> mono_plans_;
  std::vector<ServiceOutput> service_outputs_;
  std::size_t runs_ = 0;  ///< names each service run's directory.
};

}  // namespace xrbench
