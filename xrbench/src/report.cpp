#include "report.h"

#include <cmath>
#include <stdexcept>

#include "core/jsonio.h"

namespace xrbench {

void Report::metric(std::string name, double value, std::string unit) {
  for (const Metric& m : metrics_)
    if (m.name == name)
      throw std::logic_error("Report: metric '" + name + "' set twice");
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(const std::string& what) {
  ++failed_;
  notes_.push_back("FAILED: " + what);
}

std::string Report::result_line() const {
  std::size_t failed = failed_;
  xr::core::Json metrics = xr::core::Json::object();
  for (const Metric& m : metrics_) {
    if (!std::isfinite(m.value)) {
      ++failed;
      continue;
    }
    xr::core::Json entry = xr::core::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  xr::core::Json out = xr::core::Json::object();
  out.set("correct", failed == 0 && attempted_ > 0);
  out.set("attempted", attempted_);
  out.set("failed", failed);
  out.set("metrics", std::move(metrics));
  return out.dump();
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string summary_bytes(xr::runtime::shard::MergedSummary s) {
  s.stats = {};
  return s.to_json().dump();
}

std::uint64_t counter_value(const xr::obs::Snapshot& s, std::string_view name) {
  const std::uint64_t* v = s.counter(name);
  return v ? *v : 0;
}

HistogramTotals histogram_totals(const xr::obs::Snapshot& s,
                                 std::string_view name) {
  const xr::obs::HistogramData* h = s.histogram(name);
  return h ? HistogramTotals{h->sum, h->count} : HistogramTotals{};
}

double gauge_value(const xr::obs::Snapshot& s, std::string_view name) {
  const double* v = s.gauge(name);
  return v ? *v : 0.0;
}

}  // namespace xrbench
