// sweep_worker — evaluate one shard of a sweep request, streaming results.
//
// One process per shard; each writes a record stream of index-tagged
// PerformanceReport records — <out>.xrb, the columnar encoding of
// runtime/shard/binary_stream.h, its only file. sweep_merge folds K
// streams back into the monolithic summary, and `sweep_merge --dump
// <out>.xrb` prints the records as JSON lines. scripts/sweep_sharded.sh
// drives the whole flow.
//
// The one input document is a runtime::SweepRequest (--request): grid,
// evaluator, and execution mechanics all come from it. sweep_plan emits
// the presets (--emit-ablation-request, --emit-validation-request,
// --emit-request); the flags pick this process's shard and may override
// the two per-process mechanics, --chunk and --threads, which never
// change a record.
//
//   # shard 1 of 3 of the testbed ablation grid
//   $ sweep_plan --emit-ablation-request > ablation.json
//   $ sweep_worker --request ablation.json --shard-id 1 --shard-count 3
//                  --out out/shard1
//
//   # shard the Fig. 4(b) ground-truth validation sweep: every point runs
//   # the testbed-substitute simulator, seeded from its global grid index
//   $ sweep_plan --emit-validation-request remote --gt-frames 200
//                --gt-seed 42 > gt.json
//   $ sweep_worker --request gt.json --shard-id 0 --shard-count 4
//                  --strategy strided --out out/gt0
//
//   # adaptive-fidelity request (runtime/adaptive.h), sharded: run the
//   # coarse leg, derive the refinement set once (sweep_plan --refine-out
//   # over all coarse record streams), then the fine leg copies
//   # unrefined records from this shard's coarse stream
//   $ sweep_worker --request adaptive.json --pass coarse
//                  --shard-id 0 --shard-count 3 --out out/c0
//   $ sweep_plan --request adaptive.json --refine-out out/refine.json
//                out/c0.xrb out/c1.xrb out/c2.xrb
//   $ sweep_worker --request adaptive.json --pass fine
//                  --refine out/refine.json --coarse out/c0
//                  --shard-id 0 --shard-count 3 --out out/f0
//
//   # full-fidelity reference with refinement-pass seeds (diagnostics /
//   # the scripts/sweep_adaptive.sh argmin gate): refine every point
//   $ sweep_worker --request adaptive.json --pass fine --refine-all
//                  --shard-id 0 --shard-count 1 --out out/full
//
// --resume continues a killed run from its last flushed chunk;
// --max-records N stops after N new records (kill/resume demo / testing).
//
// --serve flips the process into the elastic sweep service's worker mode
// (runtime/service/worker_loop.h): register with the coordinator whose
// mailbox root is --mail, run granted leases slice by slice, exit on the
// coordinator's shutdown.
//
//   $ sweep_worker --serve --mail out/svc --name w0
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

#include "obs/snapshot.h"
#include "runtime/service/worker_loop.h"
#include "runtime/shard/worker.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sweep_worker --request FILE --shard-id N --out STEM\n"
      "                    [--shard-count K] [--strategy range|strided]\n"
      "                    [--chunk N] [--threads N] [--resume] "
      "[--max-records N]\n"
      "                    [--pass coarse|fine] [--refine FILE | "
      "--refine-all]\n"
      "                    [--coarse STEM] [--metrics-out FILE]\n"
      "       sweep_worker --serve --mail DIR --name NAME\n"
      "                    [--slice-records N] [--heartbeat-ms N] [--poll-ms "
      "N]\n"
      "                    [--idle-timeout-ms N] [--crash-after-slices N]\n"
      "                    [--slice-delay-ms N]\n");
}

/// Strict non-negative integer: trailing garbage is a usage error, not a
/// silent zero ("--threads x" must not quietly mean the shared pool).
std::size_t parse_size(const std::string& flag, const std::string& text) {
  std::size_t v = 0;
  const char* first = text.c_str();
  const char* last = first + text.size();
  const auto res = std::from_chars(first, last, v);
  if (text.empty() || res.ec != std::errc{} || res.ptr != last)
    throw std::runtime_error("bad number for " + flag + ": '" + text + "'");
  return v;
}

/// The --serve flag owns the whole command line: lease-driven service
/// worker, flags parsed here so the classic one-shard flags can't be
/// half-applied to a serving process.
int serve_main(int argc, char** argv) {
  using namespace xr::runtime::service;
  std::string mail_root, metrics_out;
  WorkerLoopOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--serve") continue;
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::runtime_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--mail") {
      mail_root = value();
    } else if (arg == "--name") {
      options.name = value();
    } else if (arg == "--slice-records") {
      options.slice_records = parse_size(arg, value());
    } else if (arg == "--heartbeat-ms") {
      options.heartbeat_ms = parse_size(arg, value());
    } else if (arg == "--poll-ms") {
      options.poll_ms = parse_size(arg, value());
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = parse_size(arg, value());
    } else if (arg == "--crash-after-slices") {
      options.max_slices = parse_size(arg, value());
    } else if (arg == "--slice-delay-ms") {
      options.slice_delay_ms = parse_size(arg, value());
    } else if (arg == "--metrics-out") {
      metrics_out = value();
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "sweep_worker: unknown --serve argument '%s'\n",
                   arg.c_str());
      usage();
      return 2;
    }
  }
  if (mail_root.empty() || options.name.empty()) {
    usage();
    return 2;
  }
  FsTransport transport(mail_root);
  const WorkerLoopOutcome out = run_service_worker(transport, options);
  std::printf(
      "sweep_worker: serve '%s' done — %zu leases, %zu records, %zu slices "
      "(%s)\n",
      options.name.c_str(), out.leases_completed, out.records_evaluated,
      out.slices,
      out.shutdown ? "shutdown"
                   : out.crashed ? "simulated crash" : "idle timeout");
  if (!metrics_out.empty()) xr::obs::write_snapshot_file(metrics_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xr::runtime::shard;
  try {
    for (int i = 1; i < argc; ++i)
      if (std::strcmp(argv[i], "--serve") == 0) return serve_main(argc, argv);
    std::string request_path, out, refine_path, coarse, metrics_out;
    std::optional<std::size_t> shard_id, chunk, threads;
    std::size_t shard_count = 1, pass = 0, max_records = 0;
    ShardStrategy strategy = ShardStrategy::kRange;
    bool resume = false, refine_all = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--request") {
        request_path = value();
      } else if (arg == "--shard-id") {
        shard_id = parse_size(arg, value());
      } else if (arg == "--shard-count") {
        shard_count = parse_size(arg, value());
      } else if (arg == "--strategy") {
        strategy = strategy_from_name(value());
      } else if (arg == "--out") {
        out = value();
      } else if (arg == "--chunk") {
        chunk = parse_size(arg, value());
      } else if (arg == "--threads") {
        threads = parse_size(arg, value());
      } else if (arg == "--pass") {
        const std::string leg = value();
        if (leg == "coarse") pass = 1;
        else if (leg == "fine") pass = 2;
        else
          throw std::runtime_error("bad value for --pass: '" + leg +
                                   "' (expected coarse or fine)");
      } else if (arg == "--refine") {
        refine_path = value();
      } else if (arg == "--refine-all") {
        refine_all = true;
      } else if (arg == "--coarse") {
        coarse = value();
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg == "--max-records") {
        max_records = parse_size(arg, value());
      } else if (arg == "--metrics-out") {
        metrics_out = value();
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "sweep_worker: unknown argument '%s'\n",
                     arg.c_str());
        usage();
        return 2;
      }
    }
    if (request_path.empty() || !shard_id || out.empty()) {
      usage();
      return 2;
    }

    // The request fixes what runs; the flags pick this process's shard and
    // its mechanics (chunk cadence, threads), which never change a record.
    const auto request = xr::runtime::SweepRequest::from_json(
        Json::parse(read_text_file(request_path)));
    WorkerSpec spec = WorkerSpec::from_request(request, *shard_id, shard_count,
                                               strategy, out, resume);
    if (chunk) spec.chunk_records = *chunk;
    if (threads) spec.threads = *threads;
    spec.adaptive_pass = pass;
    spec.coarse_input = coarse;

    if (!refine_path.empty() && refine_all)
      throw std::runtime_error(
          "--refine and --refine-all are mutually exclusive");
    if (!refine_path.empty()) {
      if (!spec.adaptive)
        throw std::runtime_error(
            "--refine needs an adaptive request (no adaptive block loaded)");
      const auto set = xr::runtime::RefinementSet::from_json(
          Json::parse(read_text_file(refine_path)));
      // The set must have been derived from THIS request's coarse pass.
      if (set.fingerprint != request.fingerprint())
        throw std::runtime_error(
            refine_path +
            " was derived for a different adaptive sweep (fingerprint "
            "mismatch)");
      spec.refine = set.indices;
    } else if (refine_all) {
      if (!spec.adaptive)
        throw std::runtime_error(
            "--refine-all needs an adaptive request (no adaptive block "
            "loaded)");
      const std::size_t n = spec.grid.build().size();
      spec.refine.resize(n);
      for (std::size_t i = 0; i < n; ++i) spec.refine[i] = i;
    }

    const WorkerOutcome outcome = run_worker(spec, max_records);
    std::printf(
        "sweep_worker: shard %zu/%zu (%s, %s%s) -> %s\n"
        "  records %zu (%zu resumed, %zu evaluated), %s\n",
        spec.shard_id, spec.shard_count, strategy_name(spec.strategy),
        evaluator_name(spec.evaluator.kind),
        spec.adaptive
            ? (spec.adaptive_pass == 1 ? ", coarse leg" : ", refine leg")
            : "",
        outcome.records_path.c_str(),
        outcome.shard_records, outcome.resumed_records,
        outcome.evaluated_records,
        outcome.complete ? "complete" : "stopped early (flushed)");
    if (!metrics_out.empty()) xr::obs::write_snapshot_file(metrics_out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_worker: %s\n", e.what());
    return 1;
  }
}
