// Streaming statistics (Welford).
//
// The ground-truth simulator accumulates per-frame latency and energy
// observations in RunningStats without storing every sample.
#pragma once

#include <cstddef>
#include <limits>

namespace xr::trace {

/// Numerically stable streaming mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * double(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace xr::trace
