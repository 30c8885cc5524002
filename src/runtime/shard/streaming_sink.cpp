#include "runtime/shard/streaming_sink.h"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "core/failpoint.h"
#include "obs/registry.h"

namespace xr::runtime::shard {

namespace {

/// Chaos helper (shard.sink.flush truncate): tear `cut` bytes off the
/// file's tail — the on-disk shape of a short write that lost power.
/// Too-small files are left alone (there is no tail to tear).
void tear_file_tail(const std::string& path, std::uint64_t cut) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size <= cut) return;
  std::filesystem::resize_file(path, size - cut, ec);
}

/// Chaos helper (shard.sink.flush corrupt): overwrite one byte `back`
/// from the end with NUL (or 0xFF when it already is NUL) — bit rot that
/// no writer-side check can see. The flipped byte breaks the last chunk's
/// checksum, so strict readers must reject it.
void corrupt_file_tail(const std::string& path, std::uint64_t back) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (ec || size <= back) return;
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!f) return;
  f.seekg(std::streamoff(size - back));
  const int old = f.get();
  f.seekp(std::streamoff(size - back));
  f.put(old == 0 ? char(0xFF) : char(0));
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;

}  // namespace

std::uint64_t grid_fingerprint(const GridSpec& spec) {
  return fnv1a(kFnvOffsetBasis, spec.to_json().dump());
}

std::uint64_t fingerprint_chain(std::uint64_t h,
                                const std::string& document) {
  h ^= 0x1F;
  h *= 1099511628211ull;
  return fnv1a(h, document);
}

std::uint64_t grid_fingerprint(const GridSpec& spec,
                               const EvaluatorSpec& evaluator) {
  return fingerprint_chain(grid_fingerprint(spec),
                           evaluator.to_json().dump());
}

void GtAggregate::add(const GtMeasurement& m) {
  ++count;
  latency_ms_sum.add(m.mean_latency_ms);
  energy_mj_sum.add(m.mean_energy_mj);
  latency_error_pct_sum.add(m.latency_error_pct);
  energy_error_pct_sum.add(m.energy_error_pct);
}

void GtAggregate::merge(const GtAggregate& other) {
  count += other.count;
  latency_ms_sum.merge(other.latency_ms_sum);
  energy_mj_sum.merge(other.energy_mj_sum);
  latency_error_pct_sum.merge(other.latency_error_pct_sum);
  energy_error_pct_sum.merge(other.energy_error_pct_sum);
}

bool GtAggregate::same_values(const GtAggregate& other) const {
  return count == other.count &&
         latency_ms_sum.same_value(other.latency_ms_sum) &&
         energy_mj_sum.same_value(other.energy_mj_sum) &&
         latency_error_pct_sum.same_value(other.latency_error_pct_sum) &&
         energy_error_pct_sum.same_value(other.energy_error_pct_sum);
}

Json GtAggregate::to_json() const {
  Json j = Json::object();
  j.set("count", count);
  // Derived means first (informational; recomputed on load), exact sums
  // after (the merge-law identity).
  j.set("mean_latency_ms", mean_latency_ms());
  j.set("mean_energy_mj", mean_energy_mj());
  j.set("mean_latency_error_pct", mean_latency_error_pct());
  j.set("mean_energy_error_pct", mean_energy_error_pct());
  j.set("latency_ms_sum", latency_ms_sum.to_json());
  j.set("energy_mj_sum", energy_mj_sum.to_json());
  j.set("latency_error_pct_sum", latency_error_pct_sum.to_json());
  j.set("energy_error_pct_sum", energy_error_pct_sum.to_json());
  return j;
}

GtAggregate GtAggregate::from_json(const Json& j) {
  GtAggregate out;
  out.count = j.at("count").as_size();
  out.latency_ms_sum = ExactSum::from_json(j.at("latency_ms_sum"));
  out.energy_mj_sum = ExactSum::from_json(j.at("energy_mj_sum"));
  out.latency_error_pct_sum =
      ExactSum::from_json(j.at("latency_error_pct_sum"));
  out.energy_error_pct_sum = ExactSum::from_json(j.at("energy_error_pct_sum"));
  return out;
}

PartialReduction::PartialReduction(ShardIdentity id, bool ground_truth)
    : id_(id) {
  if (ground_truth) gt_.emplace();
}

void PartialReduction::add(std::size_t global_index, double latency_ms,
                           double energy_mj, const GtMeasurement* gt) {
  if (evaluated_ > 0 && global_index <= last_index_)
    throw std::invalid_argument(
        "PartialReduction: indices must arrive in ascending order");
  if (gt_.has_value() != (gt != nullptr))
    throw std::invalid_argument(
        gt_ ? "PartialReduction: ground-truth reduction fed a record "
              "without a measurement"
            : "PartialReduction: analytical reduction fed a ground-truth "
              "measurement");
  last_index_ = global_index;
  if (gt) gt_->add(*gt);

  if (evaluated_ == 0) {
    best_latency_index_ = best_energy_index_ = global_index;
    min_latency_ms_ = max_latency_ms_ = latency_ms;
    min_energy_mj_ = max_energy_mj_ = energy_mj;
  } else {
    // Strict < keeps the first occurrence of the minimum — the same index
    // BatchEvaluator's serial reduction scan selects.
    if (latency_ms < min_latency_ms_) {
      min_latency_ms_ = latency_ms;
      best_latency_index_ = global_index;
    }
    if (latency_ms > max_latency_ms_) max_latency_ms_ = latency_ms;
    if (energy_mj < min_energy_mj_) {
      min_energy_mj_ = energy_mj;
      best_energy_index_ = global_index;
    }
    if (energy_mj > max_energy_mj_) max_energy_mj_ = energy_mj;
  }
  ++evaluated_;

  // Incremental 2-D Pareto maintenance. A new point is excluded iff some
  // frontier point has latency <= and energy <= (ties lose to the earlier
  // index, which is always the incumbent since indices ascend). Among
  // frontier keys <= latency the minimal energy sits at the greatest key.
  auto after = frontier_.upper_bound(latency_ms);
  if (after != frontier_.begin()) {
    const auto prev = std::prev(after);
    if (prev->second.first <= energy_mj) return;  // dominated
  }
  // The new point dominates every frontier entry with latency >= and
  // energy >= it; those form a contiguous run starting at the first key
  // >= latency (energies decrease along the key order).
  auto it = frontier_.lower_bound(latency_ms);
  while (it != frontier_.end() && it->second.first >= energy_mj)
    it = frontier_.erase(it);
  frontier_[latency_ms] = {energy_mj, global_index};
}

std::vector<ParetoPoint> PartialReduction::pareto() const {
  std::vector<ParetoPoint> out;
  out.reserve(frontier_.size());
  for (const auto& [lat, rest] : frontier_)
    out.push_back(ParetoPoint{rest.second, lat, rest.first});
  return out;
}

// ---- the sink ----------------------------------------------------------

StreamingSink::Recovery StreamingSink::scan_existing(
    const SinkOptions& options, const ShardIdentity& id,
    const ShardPlan& plan) {
  Recovery rec;
  rec.partial = PartialReduction(id, options.ground_truth);
  const BinaryRecovery scanned = scan_binary_prefix(
      options, id, plan, [&rec](const ParsedRecord& r) {
        if (r.gt)
          rec.partial.add(r.index, r.gt->mean_latency_ms,
                          r.gt->mean_energy_mj, &*r.gt);
        else
          rec.partial.add(r.index, r.report.latency.total,
                          r.report.energy.total);
      });
  rec.records = scanned.records;
  rec.valid_bytes = scanned.valid_bytes;
  return rec;
}

namespace {

SinkOptions normalized(SinkOptions options) {
  if (options.chunk_records == 0) options.chunk_records = 1;
  return options;
}

}  // namespace

StreamingSink::StreamingSink(SinkOptions options, ShardIdentity id,
                             const Recovery* recovered)
    : options_(normalized(std::move(options))),
      partial_(recovered ? recovered->partial
                         : PartialReduction(id, options_.ground_truth)),
      sink_(options_, id, recovered ? &recovered->valid_bytes : nullptr),
      records_written_(recovered ? recovered->records : 0) {}

void StreamingSink::append(std::size_t global_index,
                           const core::PerformanceReport& report) {
  append(global_index, EvaluatedPoint{report, std::nullopt});
}

void StreamingSink::append(std::size_t global_index,
                           const EvaluatedPoint& point) {
  // Validate through the reduction *before* touching the sink buffer, so a
  // rejected (out-of-order or kind-mismatched) record never reaches the
  // stream and the two outputs cannot drift apart.
  const GtMeasurement* gt = point.gt ? &*point.gt : nullptr;
  if (gt)
    partial_.add(global_index, gt->mean_latency_ms, gt->mean_energy_mj, gt);
  else
    partial_.add(global_index, point.report.latency.total,
                 point.report.energy.total);
  sink_.append(global_index, point.report, gt);
  ++buffered_records_;
  ++records_written_;
  if (buffered_records_ >= options_.chunk_records) flush();
}

void StreamingSink::flush() {
  // Sink telemetry: records/bytes written plus flush latency; all compile
  // to no-ops under XR_OBS_DISABLED.
  static obs::Counter binary_records("shard.sink.binary.records");
  static obs::Counter binary_bytes("shard.sink.binary.bytes");
  static obs::Histogram flush_ms("shard.sink.flush_ms",
                                 obs::Histogram::latency_bounds_ms());
  const auto t0 = std::chrono::steady_clock::now();
  // Chaos hook: a flush is where a disk failure actually lands. io_error
  // fires BEFORE the sink write (the buffered records never reach disk,
  // the stream keeps its valid prefix); truncate tears the tail of the
  // just-written region and then reports the failure (a short write the
  // writer noticed); corrupt flips a byte mid-stream and reports nothing
  // (bit rot the writer cannot see — downstream folds must catch it).
  const auto fault = fail::point("shard.sink.flush");
  if (fault) {
    if (fault->action == fail::Action::kDelay)
      std::this_thread::sleep_for(std::chrono::milliseconds(fault->delay_ms));
    else if (fault->action == fail::Action::kIoError)
      throw std::runtime_error("fault injected: shard.sink.flush io_error (" +
                               records_path() + ")");
  }
  const std::size_t flushed = buffered_records_;
  const std::size_t bytes = sink_.flush();
  buffered_records_ = 0;
  if (fault && fault->action == fail::Action::kTruncate) {
    tear_file_tail(records_path(), 7);
    throw std::runtime_error("fault injected: shard.sink.flush short write (" +
                             records_path() + ")");
  }
  if (fault && fault->action == fail::Action::kCorrupt)
    corrupt_file_tail(records_path(), 10);
  binary_records.add(flushed);
  binary_bytes.add(bytes);
  flush_ms.observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

PartialReduction StreamingSink::finalize() {
  flush();
  return partial_;
}

}  // namespace xr::runtime::shard
