// sweep_merge — fold K shard record streams into one summary.
//
//   $ sweep_merge --out merged.summary.json out/s0.xrb out/s1.xrb ...
//
// Operands are .xrb record streams, which carry their own shard identity
// and sweep fingerprint; any other path is refused by name.
//
//   $ sweep_merge --dump out/s0.xrb | grep '"i":42,'
//
// --dump prints one record stream as JSON lines, one record per line in
// stream order (runtime/shard/record_stream.h's record_line), and does
// nothing else.
//
// With --check FILE the merged summary is compared field-by-field (bitwise
// on every double) against a reference summary — typically the one a
// single-process run (shard_count = 1) produced — and the exit code
// reports the verdict: 0 identical, 1 diverged. This is the acceptance
// gate scripts/sweep_sharded.sh enforces.
//
// With --request FILE the merge is interpreted under a unified sweep
// request: the merged summary must carry the request's sweep fingerprint,
// and when the request's reduction is offload_plan the merged summary is
// reduced to an OffloadPlan — bitwise identical to the monolithic
// plan_offload call on the same request (the scripts/sweep_offload_plan.sh
// gate). --plan-out writes that plan's canonical JSON.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "obs/snapshot.h"
#include "runtime/offload_search.h"
#include "runtime/shard/binary_stream.h"
#include "runtime/shard/merge.h"
#include "runtime/sweep_request.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: sweep_merge [--out FILE] [--check FILE] "
               "[--request FILE [--plan-out FILE]] "
               "[--metrics-out FILE] RECORDS.xrb...\n"
               "       sweep_merge --dump RECORDS.xrb\n");
}

/// Print every record of one stream as a JSON line on stdout.
void dump_records(const std::string& path) {
  using namespace xr::runtime::shard;
  RecordSource source(path);
  ParsedRecord r;
  std::string line;
  while (source.next(r)) {
    line = record_line(r.index, r.report, r.gt ? &*r.gt : nullptr, r.slim);
    line += '\n';
    if (std::fwrite(line.data(), 1, line.size(), stdout) != line.size())
      throw std::runtime_error("cannot write to stdout");
  }
  if (std::fflush(stdout) != 0)
    throw std::runtime_error("cannot write to stdout");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xr::runtime::shard;
  try {
    std::string out_path, check_path, request_path, plan_out_path;
    std::string metrics_out, dump_path;
    std::vector<std::string> record_paths;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--out") out_path = value();
      else if (arg == "--check") check_path = value();
      else if (arg == "--request") request_path = value();
      else if (arg == "--plan-out") plan_out_path = value();
      else if (arg == "--metrics-out") metrics_out = value();
      else if (arg == "--dump") dump_path = value();
      else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        record_paths.push_back(arg);
      }
    }
    if (!dump_path.empty()) {
      if (argc != 3) {
        usage();
        return 2;
      }
      dump_records(dump_path);
      return 0;
    }
    if (record_paths.empty() ||
        (!plan_out_path.empty() && request_path.empty())) {
      usage();
      return 2;
    }

    const MergedSummary merged = merge_partial_files(record_paths);
    std::printf(
        "sweep_merge: %zu shards (%s, %s) over %zu scenarios\n"
        "  best latency : index %zu -> %g ms\n"
        "  best energy  : index %zu -> %g mJ\n"
        "  latency range [%g, %g] ms, energy range [%g, %g] mJ\n"
        "  Pareto frontier: %zu points\n",
        merged.stats.shards, strategy_name(merged.strategy),
        merged.gt ? "ground_truth" : "analytical", merged.grid_size,
        merged.best_latency_index, merged.min_latency_ms,
        merged.best_energy_index, merged.min_energy_mj,
        merged.min_latency_ms, merged.max_latency_ms, merged.min_energy_mj,
        merged.max_energy_mj, merged.pareto.size());
    if (merged.gt)
      std::printf(
          "  ground truth : mean latency %g ms, mean energy %g mJ "
          "(%zu points)\n"
          "  model error  : latency %.3f%%, energy %.3f%% "
          "(analytical vs measured)\n",
          merged.gt->mean_latency_ms(), merged.gt->mean_energy_mj(),
          merged.gt->count, merged.gt->mean_latency_error_pct(),
          merged.gt->mean_energy_error_pct());

    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open " + out_path);
      out << merged.to_json().dump() << '\n';
      std::printf("  summary -> %s\n", out_path.c_str());
    }

    if (!check_path.empty()) {
      const MergedSummary reference =
          MergedSummary::from_json(Json::parse(read_text_file(check_path)));
      std::string why;
      if (!summaries_equivalent(merged, reference, &why)) {
        std::fprintf(stderr,
                     "sweep_merge: DIVERGED from %s: %s\n",
                     check_path.c_str(), why.c_str());
        if (!metrics_out.empty()) xr::obs::write_snapshot_file(metrics_out);
        return 1;
      }
      std::printf("  check vs %s: bitwise identical\n", check_path.c_str());
    }

    if (!request_path.empty()) {
      const auto request = xr::runtime::SweepRequest::from_json(
          Json::parse(read_text_file(request_path)));
      if (merged.grid_fingerprint != request.fingerprint())
        throw std::runtime_error(
            "merged shards do not belong to the request in " +
            request_path + " (sweep fingerprint mismatch)");
      std::printf("  request %s: fingerprint verified\n",
                  request_path.c_str());
      if (!plan_out_path.empty() &&
          request.reduction.kind != xr::runtime::ReductionKind::kOffloadPlan)
        throw std::runtime_error(
            "--plan-out needs a request whose reduction kind is "
            "offload_plan; " +
            request_path + " asks for '" +
            xr::runtime::reduction_name(request.reduction.kind) + "'");
      if (request.reduction.kind == xr::runtime::ReductionKind::kOffloadPlan) {
        const xr::core::OffloadPlan plan =
            xr::core::offload_plan_from_summary(request, merged);
        std::printf("%s",
                    plan.to_string(request.reduction.alpha, "  ").c_str());
        if (!plan_out_path.empty()) {
          std::ofstream out(plan_out_path,
                            std::ios::binary | std::ios::trunc);
          if (!out) throw std::runtime_error("cannot open " + plan_out_path);
          out << plan.to_json().dump() << '\n';
          std::printf("    plan -> %s\n", plan_out_path.c_str());
        }
      }
    }
    if (!metrics_out.empty()) xr::obs::write_snapshot_file(metrics_out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_merge: %s\n", e.what());
    return 1;
  }
}
