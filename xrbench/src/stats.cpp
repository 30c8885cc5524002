#include "stats.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

namespace xrbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         double(values.size());
}

double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

std::optional<Percentile> percentile(std::vector<double> values,
                                     std::size_t denominator) {
  if (values.empty() || denominator < 2) return std::nullopt;
  Percentile out;
  out.denominator = denominator;
  out.samples = values.size();
  out.beyond = values.size() / denominator;
  const std::size_t rank = values.size() - out.beyond;  // 1-based, >= 1
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  out.value = values[rank - 1];
  return out;
}

std::optional<Percentile> tail_percentile(std::vector<double> values,
                                          std::size_t min_beyond) {
  min_beyond = std::max<std::size_t>(min_beyond, 1);
  if (values.size() / 2 < min_beyond) return std::nullopt;
  // p50, then p90, p99, p99.9, ... while enough samples stay beyond.
  std::size_t denominator = 2;
  for (std::size_t next = 10; values.size() / next >= min_beyond; next *= 10)
    denominator = next;
  return percentile(std::move(values), denominator);
}

std::string span_family(const std::string& name) {
  return name.substr(0, name.find('['));
}

std::vector<std::uint64_t> self_times_us(
    const std::vector<xr::obs::SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const auto& s : spans) {
    const auto parent = by_id.find(s.parent_id);
    if (s.parent_id == 0 || parent == by_id.end()) continue;
    children[parent->second].emplace_back(s.start_us, s.end_us);
  }
  std::vector<std::uint64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t begin = spans[i].start_us;
    const std::uint64_t end = std::max(spans[i].end_us, begin);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = begin;  // covered up to here
    for (auto [s, e] : kids) {
      s = std::clamp(s, begin, end);
      e = std::clamp(e, begin, end);
      s = std::max(s, cursor);
      if (e > s) {
        covered += e - s;
        cursor = e;
      }
    }
    out[i] = (end - begin) - covered;
  }
  return out;
}

std::vector<SpanFamilyTotals> family_totals(
    const std::vector<xr::obs::SpanRecord>& spans) {
  const std::vector<std::uint64_t> self = self_times_us(spans);
  std::map<std::string, SpanFamilyTotals> by_family;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string family = span_family(spans[i].name);
    SpanFamilyTotals& t = by_family[family];
    t.family = family;
    ++t.count;
    t.total_ms += double(spans[i].end_us - spans[i].start_us) / 1000.0;
    t.self_ms += double(self[i]) / 1000.0;
  }
  std::vector<SpanFamilyTotals> out;
  for (auto& [name, totals] : by_family) out.push_back(std::move(totals));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

}  // namespace xrbench
