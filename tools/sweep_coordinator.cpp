// sweep_coordinator — run one sweep request over an elastic worker pool.
//
// The coordinator side of the sweep service (runtime/service/): it fixes
// the shard partition, publishes the request document on the mailbox
// root's blob board, leases shards to whatever `sweep_worker --serve`
// processes register, expires and reassigns the leases of workers that
// stop heartbeating, folds each completed shard as it lands, and writes
// the merged summary — byte-stable under worker churn, bitwise identical
// to the monolithic run_request.
//
//   $ sweep_coordinator --request request.json --mail out/svc
//                       --shards 4 --shard-dir out/svc/shards
//                       --out merged.summary.json
//   # meanwhile, any number of:
//   $ sweep_worker --serve --mail out/svc --name w0
//
// --check FILE compares the merged summary against a reference (exit 1 on
// divergence) — the scripts/sweep_service.sh churn gate. --plan-out
// writes the reduced OffloadPlan for offload_plan requests. --metrics-out
// writes the ONE aggregated service snapshot: coordinator metrics
// unlabeled plus each worker's under worker="name" labels.
//
// --allow-partial switches exhausted shards from sweep-abort to
// quarantine: the completed subset still merges, and --partial-out writes
// the "xr.service.partial.v1" document naming the quarantined shards
// (with attempts and last errors) next to the partial summary.
#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "core/optimizer.h"
#include "obs/snapshot.h"
#include "runtime/service/coordinator.h"
#include "runtime/sweep_request.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sweep_coordinator --request FILE --mail DIR --shard-dir DIR\n"
      "                         [--shards K]\n"
      "                         [--chunk-records N]\n"
      "                         [--lease-timeout-ms N] [--poll-ms N]\n"
      "                         [--max-attempts N] [--shutdown-grace-ms N]\n"
      "                         [--out FILE] [--check FILE] [--plan-out "
      "FILE]\n"
      "                         [--metrics-out FILE]\n"
      "                         [--allow-partial] [--partial-out FILE]\n");
}

std::size_t parse_size(const std::string& flag, const std::string& text) {
  std::size_t v = 0;
  const char* first = text.c_str();
  const char* last = first + text.size();
  const auto res = std::from_chars(first, last, v);
  if (text.empty() || res.ec != std::errc{} || res.ptr != last)
    throw std::runtime_error("bad number for " + flag + ": '" + text + "'");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xr::runtime::service;
  using namespace xr::runtime::shard;
  try {
    std::string request_path, mail_root, out_path, check_path, plan_out_path;
    std::string metrics_out, partial_out;
    std::optional<std::size_t> chunk_records;
    CoordinatorOptions options;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--request") request_path = value();
      else if (arg == "--mail") mail_root = value();
      else if (arg == "--shard-dir") options.shard_dir = value();
      else if (arg == "--shards") options.shards = parse_size(arg, value());
      else if (arg == "--chunk-records")
        chunk_records = parse_size(arg, value());
      else if (arg == "--lease-timeout-ms")
        options.lease_timeout_ms = parse_size(arg, value());
      else if (arg == "--poll-ms") options.poll_ms = parse_size(arg, value());
      else if (arg == "--max-attempts")
        options.max_attempts = parse_size(arg, value());
      else if (arg == "--shutdown-grace-ms")
        options.shutdown_grace_ms = parse_size(arg, value());
      else if (arg == "--out") out_path = value();
      else if (arg == "--check") check_path = value();
      else if (arg == "--plan-out") plan_out_path = value();
      else if (arg == "--metrics-out") metrics_out = value();
      else if (arg == "--allow-partial") options.allow_partial = true;
      else if (arg == "--partial-out") partial_out = value();
      else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "sweep_coordinator: unknown argument '%s'\n",
                     arg.c_str());
        usage();
        return 2;
      }
    }
    if (request_path.empty() || mail_root.empty() ||
        options.shard_dir.empty()) {
      usage();
      return 2;
    }

    auto request = xr::runtime::SweepRequest::from_json(
        Json::parse(read_text_file(request_path)));
    // The flush chunk is execution mechanics, not sweep identity: an
    // override changes the flush cadence, never the fingerprint.
    if (chunk_records) {
      if (*chunk_records == 0)
        throw std::runtime_error("--chunk-records must be >= 1");
      request.execution.chunk_records = *chunk_records;
    }
    if (!plan_out_path.empty() &&
        request.reduction.kind != xr::runtime::ReductionKind::kOffloadPlan)
      throw std::runtime_error(
          "--plan-out needs a request whose reduction kind is offload_plan; " +
          request_path + " asks for '" +
          xr::runtime::reduction_name(request.reduction.kind) + "'");

    if (!partial_out.empty() && !options.allow_partial)
      throw std::runtime_error("--partial-out requires --allow-partial");

    FsTransport transport(mail_root);
    const CoordinatorResult result =
        run_coordinator(transport, request, options);
    const MergedSummary& merged = result.summary;
    std::printf(
        "sweep_coordinator: %zu shards over %zu scenarios — %zu workers "
        "seen, %zu leases reassigned\n"
        "  best latency : index %zu -> %g ms\n"
        "  best energy  : index %zu -> %g mJ\n"
        "  Pareto frontier: %zu points\n",
        options.shards, merged.grid_size, result.workers_seen,
        result.leases_reassigned, merged.best_latency_index,
        merged.min_latency_ms, merged.best_energy_index, merged.min_energy_mj,
        merged.pareto.size());

    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open " + out_path);
      out << merged.to_json().dump() << '\n';
      std::printf("  summary -> %s\n", out_path.c_str());
    }
    if (result.plan) {
      std::printf("%s",
                  result.plan->to_string(request.reduction.alpha, "  ").c_str());
      if (!plan_out_path.empty()) {
        std::ofstream out(plan_out_path, std::ios::binary | std::ios::trunc);
        if (!out) throw std::runtime_error("cannot open " + plan_out_path);
        out << result.plan->to_json().dump() << '\n';
        std::printf("    plan -> %s\n", plan_out_path.c_str());
      }
    }
    if (!metrics_out.empty()) {
      xr::obs::write_document_file(result.metrics, metrics_out);
      std::printf("  metrics -> %s\n", metrics_out.c_str());
    }
    if (!result.quarantined.empty()) {
      std::string ids;
      for (const std::size_t k : result.quarantined)
        ids += (ids.empty() ? "" : ", ") + std::to_string(k);
      std::printf("  PARTIAL sweep: %zu shard(s) quarantined [%s], %zu of "
                  "%zu scenarios merged\n",
                  result.quarantined.size(), ids.c_str(), merged.evaluated,
                  merged.grid_size);
    }
    if (!partial_out.empty() && result.partial_document) {
      std::ofstream out(partial_out, std::ios::binary | std::ios::trunc);
      if (!out) throw std::runtime_error("cannot open " + partial_out);
      out << result.partial_document->dump() << '\n';
      std::printf("  partial document -> %s\n", partial_out.c_str());
    }

    if (!check_path.empty()) {
      const MergedSummary reference =
          MergedSummary::from_json(Json::parse(read_text_file(check_path)));
      std::string why;
      if (!summaries_equivalent(merged, reference, &why)) {
        std::fprintf(stderr, "sweep_coordinator: DIVERGED from %s: %s\n",
                     check_path.c_str(), why.c_str());
        return 1;
      }
      std::printf("  check vs %s: bitwise identical\n", check_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_coordinator: %s\n", e.what());
    return 1;
  }
}
