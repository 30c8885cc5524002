#include "runtime/shard/record_stream.h"

#include <stdexcept>

#include "core/serialize.h"

namespace xr::runtime::shard {

RecordFormat format_from_name(const std::string& name) {
  if (name == "binary") return RecordFormat::kBinary;
  if (name == "jsonl")
    throw std::invalid_argument(
        "record format 'jsonl' is no longer written: records are .xrb "
        "streams, and `sweep_merge --dump FILE.xrb` prints them as JSON "
        "lines");
  throw std::invalid_argument("unknown record format '" + name +
                              "' (expected binary)");
}

std::string record_path(const std::string& stem) {
  return stem + std::string(kRecordExtension);
}

bool is_record_path(std::string_view path) noexcept {
  return path.size() > kRecordExtension.size() &&
         path.substr(path.size() - kRecordExtension.size()) ==
             kRecordExtension;
}

std::string record_line(std::size_t global_index,
                        const core::PerformanceReport& report,
                        const GtMeasurement* gt, bool metrics_only) {
  Json j = Json::object();
  j.set("i", global_index);
  if (metrics_only) {
    // Slim shape: exactly the totals the reduction consumes.
    j.set("latency_ms", report.latency.total);
    j.set("energy_mj", report.energy.total);
  } else {
    j.set("latency", core::to_json(report.latency));
    j.set("energy", core::to_json(report.energy));
    j.set("sensors", core::to_json(report.sensors));
  }
  if (gt) {
    Json g = Json::object();
    g.set("seed", format_hex64(gt->seed));
    g.set("frames", gt->frames);
    g.set("mean_latency_ms", gt->mean_latency_ms);
    g.set("mean_energy_mj", gt->mean_energy_mj);
    g.set("latency_error_pct", gt->latency_error_pct);
    g.set("energy_error_pct", gt->energy_error_pct);
    j.set("gt", std::move(g));
  }
  return j.dump();
}

}  // namespace xr::runtime::shard
