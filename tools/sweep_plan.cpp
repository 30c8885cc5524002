// sweep_plan — express and run sweeps as unified serializable requests.
//
//   # emit the default offload search (remote factory base) as a request
//   $ sweep_plan --emit-request > request.json
//
//   # same, with a custom scenario / search space / objective weight
//   $ sweep_plan --emit-request --scenario scenario.json --space space.json
//                --alpha 0.25 > request.json
//
//   # run the request monolithically (core::plan_offload) and write the
//   # plan's canonical JSON — the reference the sharded path must match
//   $ sweep_plan --request request.json --plan-out mono.plan.json
//
//   # emit the testbed ablation grid (analytical model, summary
//   # reduction) — the preset scripts/sweep_sharded.sh shards
//   $ sweep_plan --emit-ablation-request > ablation.json
//
//   # emit the Fig. 4 ground-truth validation sweep; --coarse-frames makes
//   # it an adaptive-fidelity request (runtime/adaptive.h), and --band
//   # sets its refinement band around the argmin
//   $ sweep_plan --emit-validation-request remote --gt-seed 42
//                --gt-frames 200 > gt.json
//   $ sweep_plan --emit-validation-request remote --gt-seed 42
//                --gt-frames 200 --coarse-frames 20 --band 0.05 > adaptive.json
//
//   # run any summary-producing request monolithically (adaptive requests
//   # dispatch to the two-pass driver) and write the merged summary —
//   # the bitwise reference for the sharded run
//   $ sweep_plan --request adaptive.json --summary-out mono.summary.json
//
//   # derive the refinement set from a completed coarse pass (the K
//   # pass-1 record streams — any disjoint complete cover of the grid)
//   $ sweep_plan --request adaptive.json --refine-out refine.json
//                out/c0.xrb out/c1.xrb out/c2.xrb
//
// Every emitted request runs sharded as `sweep_worker --request` per shard
// + `sweep_merge`; scripts/sweep_offload_plan.sh asserts the sharded and
// monolithic plans are byte-identical (incl. a kill/resume leg), and
// scripts/sweep_adaptive.sh asserts the adaptive two-pass law.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "core/serialize.h"
#include "runtime/adaptive.h"
#include "runtime/offload_search.h"
#include "runtime/shard/binary_stream.h"
#include "testbed/experiments.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: sweep_plan --emit-request [--scenario FILE] [--space FILE]\n"
      "                  [--alpha A]\n"
      "       sweep_plan --emit-ablation-request\n"
      "       sweep_plan --emit-validation-request local|remote\n"
      "                  [--gt-seed N] [--gt-frames N]\n"
      "                  [--coarse-frames N [--band F]]\n"
      "       sweep_plan --request FILE [--plan-out FILE]\n"
      "       sweep_plan --request FILE --summary-out FILE\n"
      "       sweep_plan --request FILE --refine-out FILE COARSE.xrb...\n");
}

double parse_num(const std::string& flag, const std::string& text) {
  try {
    return xr::core::parse_double(text);
  } catch (const std::exception&) {
    throw std::runtime_error("bad number for " + flag + ": '" + text + "'");
  }
}

/// Strict non-negative integer via from_chars (the same rule sweep_worker
/// applies): trailing garbage is an error, and full 64-bit seeds survive —
/// a double round-trip would reject or corrupt values above 2^53.
std::size_t parse_count(const std::string& flag, const std::string& text) {
  std::size_t v = 0;
  const char* first = text.c_str();
  const char* last = first + text.size();
  const auto res = std::from_chars(first, last, v);
  if (text.empty() || res.ec != std::errc{} || res.ptr != last)
    throw std::runtime_error("bad count for " + flag + ": '" + text + "'");
  return v;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xr::core;
  try {
    bool emit = false, emit_ablation = false;
    std::string validation_placement;
    std::string scenario_path, space_path, request_path;
    std::string plan_out_path, summary_out_path, refine_out_path;
    std::vector<std::string> record_paths;
    double alpha = 0.5;
    std::uint64_t gt_seed = 42;
    std::size_t gt_frames = 200;
    std::optional<std::size_t> coarse_frames;
    std::optional<double> band;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--emit-request") emit = true;
      else if (arg == "--emit-ablation-request") emit_ablation = true;
      else if (arg == "--emit-validation-request")
        validation_placement = value();
      else if (arg == "--scenario") scenario_path = value();
      else if (arg == "--space") space_path = value();
      else if (arg == "--alpha") alpha = parse_num(arg, value());
      else if (arg == "--gt-seed") gt_seed = parse_count(arg, value());
      else if (arg == "--gt-frames") gt_frames = parse_count(arg, value());
      else if (arg == "--coarse-frames")
        coarse_frames = parse_count(arg, value());
      else if (arg == "--band") band = parse_num(arg, value());
      else if (arg == "--request") request_path = value();
      else if (arg == "--plan-out") plan_out_path = value();
      else if (arg == "--summary-out") summary_out_path = value();
      else if (arg == "--refine-out") refine_out_path = value();
      else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg.rfind("--", 0) == 0) {
        std::fprintf(stderr, "sweep_plan: unknown argument '%s'\n",
                     arg.c_str());
        usage();
        return 2;
      } else {
        record_paths.push_back(arg);
      }
    }

    const int modes = int(emit) + int(emit_ablation) +
                      int(!validation_placement.empty()) +
                      int(!request_path.empty());
    if (modes != 1) {  // exactly one mode
      usage();
      return 2;
    }
    // Positional operands are the coarse record streams of --refine-out
    // and nothing else; anywhere else they are a typo'd flag value, not
    // something to silently discard. Likewise the --request outputs are
    // one-at-a-time modes.
    if (refine_out_path.empty() && !record_paths.empty()) {
      std::fprintf(stderr, "sweep_plan: unexpected argument '%s'\n",
                   record_paths.front().c_str());
      usage();
      return 2;
    }
    if (int(!plan_out_path.empty()) + int(!summary_out_path.empty()) +
            int(!refine_out_path.empty()) > 1)
      throw std::runtime_error(
          "--plan-out, --summary-out, and --refine-out are mutually "
          "exclusive");

    if (emit) {
      ScenarioConfig base = make_remote_scenario();
      if (!scenario_path.empty())
        base = scenario_from_json(Json::parse(read_text_file(scenario_path)));
      OffloadSearchSpace space;
      if (!space_path.empty())
        space = OffloadSearchSpace::from_json(
            Json::parse(read_text_file(space_path)));
      const auto request = offload_search_request(base, space, alpha);
      std::printf("%s\n", request.to_json().dump().c_str());
      return 0;
    }

    if (emit_ablation) {
      xr::runtime::SweepRequest request;
      request.grid = xr::testbed::ablation_grid_spec();
      std::printf("%s\n", request.to_json().dump().c_str());
      return 0;
    }

    if (!validation_placement.empty()) {
      const auto placement =
          validation_placement == "local"
              ? InferencePlacement::kLocal
              : (validation_placement == "remote"
                     ? InferencePlacement::kRemote
                     : throw std::runtime_error(
                           "bad placement '" + validation_placement +
                           "' (expected local or remote)"));
      if (band && !coarse_frames)
        throw std::runtime_error(
            "--band sets the adaptive refinement band; it needs "
            "--coarse-frames");
      xr::testbed::SweepConfig cfg;
      cfg.seed = gt_seed;
      cfg.frames_per_point = gt_frames;
      xr::runtime::SweepRequest request;
      if (coarse_frames) {
        xr::runtime::AdaptiveSpec adaptive;
        adaptive.coarse_frames = *coarse_frames;
        if (band) adaptive.band_fraction = *band;
        request =
            xr::testbed::adaptive_validation_request(placement, cfg, adaptive);
      } else {
        request.grid = xr::testbed::validation_grid_spec(placement, cfg);
        request.evaluator = xr::testbed::gt_evaluator_spec(cfg);
      }
      std::printf("%s\n", request.to_json().dump().c_str());
      return 0;
    }

    const auto request = xr::runtime::SweepRequest::from_json(
        Json::parse(read_text_file(request_path)));

    if (!refine_out_path.empty()) {
      if (!request.adaptive)
        throw std::runtime_error(
            "--refine-out needs an adaptive request; " + request_path +
            " has no adaptive block");
      if (record_paths.empty())
        throw std::runtime_error(
            "--refine-out needs the coarse record streams (COARSE.xrb...)");
      const std::size_t grid_size = request.grid.build().size();
      // Each stream's header must identify THIS request's coarse pass —
      // the same no-mixing contract resume and merge enforce.
      const std::uint64_t coarse_fp = xr::runtime::shard::grid_fingerprint(
          request.grid, xr::runtime::coarse_evaluator(request.evaluator,
                                                      *request.adaptive));
      for (const auto& path : record_paths) {
        const auto header = xr::runtime::shard::read_binary_header(path);
        if (header.id.grid_fingerprint != coarse_fp ||
            header.id.grid_size != grid_size)
          throw std::runtime_error(
              path + " is not a coarse-pass stream of " + request_path +
              " (its header carries a different sweep fingerprint)");
      }
      const auto estimates = xr::runtime::coarse_estimates_from_records(
          record_paths, grid_size);
      xr::runtime::RefinementSet set;
      set.fingerprint = request.fingerprint();
      set.grid_size = grid_size;
      set.indices = xr::runtime::select_refinement(request.grid, estimates,
                                                   *request.adaptive);
      write_file(refine_out_path, set.to_json().dump());
      std::printf(
          "sweep_plan: refinement set -> %s (%zu of %zu points, "
          "coarse %zu -> fine %zu frames)\n",
          refine_out_path.c_str(), set.indices.size(), grid_size,
          request.adaptive->coarse_frames, request.adaptive->fine_frames);
      return 0;
    }

    if (!summary_out_path.empty()) {
      const auto summary = xr::runtime::run_request(request);
      write_file(summary_out_path, summary.to_json().dump());
      std::printf(
          "sweep_plan: monolithic summary over %zu scenarios -> %s\n"
          "  best latency : index %zu -> %g ms\n"
          "  best energy  : index %zu -> %g mJ\n",
          summary.grid_size, summary_out_path.c_str(),
          summary.best_latency_index, summary.min_latency_ms,
          summary.best_energy_index, summary.min_energy_mj);
      return 0;
    }

    const OffloadPlan plan = plan_offload(request);
    std::printf("sweep_plan: monolithic %s",
                plan.to_string(request.reduction.alpha).c_str());
    if (!plan_out_path.empty()) {
      write_file(plan_out_path, plan.to_json().dump());
      std::printf("  plan -> %s\n", plan_out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_plan: %s\n", e.what());
    return 1;
  }
}
