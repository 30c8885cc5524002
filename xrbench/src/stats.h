// Order statistics and span arithmetic of the benchmark.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond it, with the sample count: a p99 read
// from 200 samples is two samples, not a tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/span.h"

namespace xrbench {

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// The fastest of repeated timings of the same work; 0 when empty. The
/// benchmark reports single-threaded steps (a plan_offload call, a slice
/// of the query stream) this way. Each repeat does the same work, so the
/// spread between them is interference, which only ever adds time: on a
/// shared host co-tenants slow one vCPU's memory-bound work by 1.7× and
/// more, in stretches from under a second to minutes, and the median of
/// the repeats flips between the two levels with the share of the run
/// they take. The fastest repeat is the cost of the work in the run's
/// quietest moment. Steps spread over several threads average the vCPUs'
/// interference themselves and are reported at their median.
[[nodiscard]] double fastest(const std::vector<double>& values);

/// One tail percentile of a sample set: p = 100 · (1 − 1/denominator).
struct Percentile {
  std::size_t denominator = 2;  ///< 2 → p50, 100 → p99, 1000 → p99.9 ...
  double value = 0;             ///< nearest-rank value.
  std::size_t samples = 0;      ///< sample count n.
  std::size_t beyond = 0;       ///< samples ranked above the value.

  [[nodiscard]] double percent() const {
    return 100.0 * (1.0 - 1.0 / double(denominator));
  }
};

/// Nearest-rank percentile p = 100 · (1 − 1/denominator) of `values`,
/// computed in integers: rank = n − ⌊n / denominator⌋, so exactly
/// ⌊n / denominator⌋ samples lie beyond it. nullopt on an empty set.
[[nodiscard]] std::optional<Percentile> percentile(std::vector<double> values,
                                                   std::size_t denominator);

/// The highest percentile of the ladder p50, p90, p99, p99.9, ... that has
/// at least `min_beyond` samples beyond it; nullopt when even p50 has
/// fewer (n < 2 · min_beyond).
[[nodiscard]] std::optional<Percentile> tail_percentile(
    std::vector<double> values, std::size_t min_beyond = 10);

/// Span family: the name with its request-id suffix removed
/// ("bench.gt.point[i=17]" → "bench.gt.point").
[[nodiscard]] std::string span_family(const std::string& name);

/// Self time of every span (µs, index-aligned with `spans`): its duration
/// minus the part of its interval covered by the union of its children's
/// intervals (children found through parent_id; overlapping or
/// out-of-bounds children are merged and clipped, so nothing is
/// subtracted twice).
[[nodiscard]] std::vector<std::uint64_t> self_times_us(
    const std::vector<xr::obs::SpanRecord>& spans);

/// Per-family totals of a trace, sorted by self time (largest first).
struct SpanFamilyTotals {
  std::string family;
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
[[nodiscard]] std::vector<SpanFamilyTotals> family_totals(
    const std::vector<xr::obs::SpanRecord>& spans);

}  // namespace xrbench
