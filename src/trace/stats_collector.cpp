#include "trace/stats_collector.h"

#include <algorithm>
#include <cmath>

namespace xr::trace {

void RunningStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / double(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const std::size_t total = n_ + other.n_;
  m2_ += other.m2_ +
         delta * delta * double(n_) * double(other.n_) / double(total);
  mean_ += delta * double(other.n_) / double(total);
  n_ = total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / double(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace xr::trace
