// What one benchmark run reports, plus the small helpers every job shares.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.h"
#include "runtime/shard/merge.h"

namespace xrbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Metrics by name, operations attempted and failed, and the human-readable
/// lines printed ahead of the result object.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };

  void metric(std::string name, double value, std::string unit);
  void note(std::string line) { notes_.push_back(std::move(line)); }
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Count one failed operation and say why (printed as a note).
  void fail(const std::string& what);

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept {
    return notes_;
  }

  /// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
  /// on one line. A non-finite metric value is itself a failure.
  [[nodiscard]] std::string result_line() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// 64-bit FNV-1a: byte equality of two plan documents is checked by
/// comparing their hashes when the documents cannot all be kept.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// A summary's deterministic document: to_json() with the wall-time stats
/// cleared, so two runs of one request compare byte for byte.
[[nodiscard]] std::string summary_bytes(xr::runtime::shard::MergedSummary s);

/// Registry readings the per-layer metrics difference across a region.
[[nodiscard]] std::uint64_t counter_value(const xr::obs::Snapshot& s,
                                          std::string_view name);
struct HistogramTotals {
  double sum = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] HistogramTotals histogram_totals(const xr::obs::Snapshot& s,
                                               std::string_view name);
[[nodiscard]] double gauge_value(const xr::obs::Snapshot& s,
                                 std::string_view name);

}  // namespace xrbench
