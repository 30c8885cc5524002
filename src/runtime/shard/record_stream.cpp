#include "runtime/shard/record_stream.h"

#include <stdexcept>

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

std::string record_line(const ParsedRecord& record) {
  Json j = Json::object();
  j.set("i", record.index);
  j.set("latency_ms", record.latency_ms);
  j.set("energy_mj", record.energy_mj);
  if (const auto& gt = record.gt) {
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
