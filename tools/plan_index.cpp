// plan_index — precompute an offload-plan index, then serve it by lookup.
//
//   # emit an index spec: remote factory base, two context axes
//   $ plan_index --emit-spec --axis frame_size=300,500,700
//                --axis throughput_mbps=50,100 > index.spec.json
//
//   # same, with a custom base scenario / search space / objective weight /
//   # nearest-serving tolerance
//   $ plan_index --emit-spec --scenario scenario.json --space space.json
//                --alpha 0.25 --gap 0.1 --axis cpu_ghz=1,2,3 > index.spec.json
//
//   # build: one plan per scenario cell, byte-identical to a plan_offload
//   # of the cell, from one SoA kernel prepare per context slice
//   $ plan_index --build index.spec.json --out index.json [--threads N]
//
//   # serve one query (values in axis declaration order); prints whether
//   # the answer came from the store (exact/nearest cell) or a fresh search
//   $ plan_index --serve index.json --at 500,75
//
// The built artifact is JSON round-trippable bitwise (dump == re-dump), so
// it ships like any other sweep artifact: build on a beefy box, serve
// anywhere. See src/runtime/plan_index.h for the serving tiers.
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "core/serialize.h"
#include "obs/snapshot.h"
#include "runtime/plan_index.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: plan_index --emit-spec [--scenario FILE] [--space FILE]\n"
      "                  [--alpha A] [--gap G] --axis knob=v1,v2,... ...\n"
      "       plan_index --build SPEC.json --out INDEX.json [--threads N]\n"
      "       plan_index --serve INDEX.json --at v1,v2,...\n"
      "       (--build/--serve also accept --metrics-out FILE)\n");
}

double parse_num(const std::string& flag, const std::string& text) {
  try {
    return xr::core::parse_double(text);
  } catch (const std::exception&) {
    throw std::runtime_error("bad number for " + flag + ": '" + text + "'");
  }
}

std::vector<double> parse_csv(const std::string& flag,
                              const std::string& text) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    out.push_back(parse_num(flag, text.substr(start, end - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out.empty()) throw std::runtime_error(flag + ": no values");
  return out;
}

/// "knob=v1,v2,..." -> numeric AxisSpec (index axes are numeric-only; the
/// spec's validate() names any violation).
xr::runtime::AxisSpec parse_axis(const std::string& text) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos || eq == 0)
    throw std::runtime_error("--axis expects knob=v1,v2,...; got '" + text +
                             "'");
  xr::runtime::AxisSpec axis;
  axis.knob = text.substr(0, eq);
  axis.numbers = parse_csv("--axis " + axis.knob, text.substr(eq + 1));
  return axis;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xr;
  try {
    bool emit = false;
    std::string scenario_path, space_path, spec_path, out_path, index_path;
    std::vector<runtime::AxisSpec> axes;
    std::vector<double> query;
    bool have_query = false;
    double alpha = 0.5, gap = 0.25;
    std::size_t threads = 0;
    std::string metrics_out;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc)
          throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--emit-spec") emit = true;
      else if (arg == "--scenario") scenario_path = value();
      else if (arg == "--space") space_path = value();
      else if (arg == "--alpha") alpha = parse_num(arg, value());
      else if (arg == "--gap") gap = parse_num(arg, value());
      else if (arg == "--axis") axes.push_back(parse_axis(value()));
      else if (arg == "--build") spec_path = value();
      else if (arg == "--out") out_path = value();
      else if (arg == "--threads")
        threads = std::size_t(parse_num(arg, value()));
      else if (arg == "--serve") index_path = value();
      else if (arg == "--metrics-out") metrics_out = value();
      else if (arg == "--at") {
        query = parse_csv(arg, value());
        have_query = true;
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        std::fprintf(stderr, "plan_index: unknown argument '%s'\n",
                     arg.c_str());
        usage();
        return 2;
      }
    }

    const int modes =
        int(emit) + int(!spec_path.empty()) + int(!index_path.empty());
    if (modes != 1) {
      usage();
      return 2;
    }

    if (emit) {
      if (axes.empty())
        throw std::runtime_error(
            "--emit-spec needs at least one --axis knob=v1,v2,...");
      runtime::PlanIndexSpec spec;
      if (!scenario_path.empty())
        spec.scenarios.scenario = core::scenario_from_json(
            core::Json::parse(core::read_text_file(scenario_path)));
      if (!space_path.empty())
        spec.space = core::OffloadSearchSpace::from_json(
            core::Json::parse(core::read_text_file(space_path)));
      spec.scenarios.axes = axes;
      spec.alpha = alpha;
      spec.max_relative_gap = gap;
      spec.validate();
      std::printf("%s\n", spec.to_json().dump().c_str());
      return 0;
    }

    if (!spec_path.empty()) {
      if (out_path.empty())
        throw std::runtime_error("--build needs --out INDEX.json");
      const auto spec = runtime::PlanIndexSpec::from_json(
          core::Json::parse(core::read_text_file(spec_path)));
      const auto index = runtime::OffloadPlanIndex::build(
          spec, {}, runtime::BatchOptions{threads});
      write_file(out_path, index.to_json().dump());
      std::size_t candidates = 0;
      for (std::size_t cell = 0; cell < index.size(); ++cell)
        candidates += index.plan_at(cell).candidates_evaluated;
      std::printf(
          "plan_index: %zu cells (%zu candidates searched) -> %s\n",
          index.size(), candidates, out_path.c_str());
      if (!metrics_out.empty()) obs::write_snapshot_file(metrics_out);
      return 0;
    }

    if (!have_query)
      throw std::runtime_error("--serve needs --at v1,v2,...");
    auto index = runtime::OffloadPlanIndex::from_json(
        core::Json::parse(core::read_text_file(index_path)));
    const auto result = index.serve(query);
    std::printf("plan_index: %s", runtime::plan_source_name(result.source));
    if (result.cell != runtime::OffloadPlanIndex::kNoCell)
      std::printf(" (cell %zu)", result.cell);
    std::printf("\n%s",
                result.plan.to_string(index.spec().alpha).c_str());
    if (!metrics_out.empty()) obs::write_snapshot_file(metrics_out);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "plan_index: %s\n", e.what());
    return 1;
  }
}
