// Bounded-memory, chunked result delivery with mergeable reductions.
//
// A shard worker never holds its whole report vector: it evaluates the grid
// in chunks, appends each report to its record stream (<stem>.xrb, the
// binary columnar format of binary_stream.h), and folds it into a
// PartialReduction — the exact sufficient statistic for every BatchResult
// summary (per-metric argmin/min/max, the latency/energy Pareto frontier,
// throughput stats). K partial reductions over a disjoint cover of the
// grid merge back (see merge.h) into the *bitwise identical* monolithic
// summary, because
//
//   * argmin: each shard records the first occurrence of its minimum in
//     ascending global-index order, so the merged argmin (smallest index
//     among shards attaining the global minimum) is the global first
//     occurrence — the same index BatchEvaluator's serial scan picks;
//   * Pareto: a point excluded from its shard frontier is excluded from the
//     monolithic frontier by the same dominator, so the union of shard
//     frontiers re-scanned in (latency, energy, index) order — the order
//     BatchEvaluator's stable_sort induces — reproduces the monolithic
//     frontier exactly;
//   * every double crossing a process boundary survives the trip
//     bit-for-bit: raw IEEE-754 little-endian columns in the record stream.
//
// A PartialReduction is therefore a pure function of the decoded totals,
// which is why slim and full record shapes merge to bitwise-identical
// summaries, and why the stream is a shard's only file: resume and merge
// rebuild the reduction from it.
//
// Record shapes — full, metrics-only (SinkOptions::metrics_only, the
// sweep_worker --metrics flag, for million-point grids where breakdowns
// dominate I/O), and either shape plus a ground-truth measurement block
// (see evaluator.h) — are defined once in record_stream.h. In ground-truth
// mode the reduction runs over the *measurements* (extrema and Pareto on
// GT means) plus a GtAggregate of exactly-mergeable sums (ExactSum), so GT
// summaries obey the same bitwise merge law as analytical ones.
//
// The sink flushes every chunk_records records, so a killed worker loses
// at most one chunk; scan_existing() recovers the longest valid record
// prefix for resume under the stream's tear taxonomy (binary_stream.h): a
// torn *tail* (the only damage a kill can inflict) truncates silently,
// while corruption — bad magic, checksum, or a record count its payload
// disagrees with — is a named std::runtime_error, because silently
// dropping the valid suffix behind it would mask real data loss.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/framework.h"
#include "runtime/shard/binary_stream.h"
#include "runtime/shard/evaluator.h"
#include "runtime/shard/exact_sum.h"
#include "runtime/shard/jsonio.h"
#include "runtime/shard/record_stream.h"
#include "runtime/shard/shard_plan.h"

namespace xr::runtime::shard {

/// FNV-1a over a runtime::GridSpec's canonical JSON serialization.
[[nodiscard]] std::uint64_t grid_fingerprint(const GridSpec& spec);
/// Chain one more canonical JSON document onto a fingerprint across a
/// 0x1F (unit separator) boundary — the byte cannot appear in a JSON
/// dump, so documents never alias across the join. Every multi-document
/// fingerprint in the repo (grid+evaluator below, the adaptive
/// fingerprint in runtime/adaptive.h) composes through this one helper so
/// the schemes cannot drift apart.
[[nodiscard]] std::uint64_t fingerprint_chain(std::uint64_t h,
                                              const std::string& document);
/// Sweep fingerprint: the grid *and* the evaluator (kind, seed, frames).
/// Worker documents carry this form so a resume or merge can never mix an
/// analytical stream with a ground-truth one, or two GT sweeps that differ
/// in seed or fidelity.
[[nodiscard]] std::uint64_t grid_fingerprint(const GridSpec& spec,
                                             const EvaluatorSpec& evaluator);

/// One Pareto-frontier member: grid index plus the two objectives.
struct ParetoPoint {
  std::size_t index = 0;
  double latency_ms = 0;
  double energy_mj = 0;
};

/// Exactly-mergeable ground-truth aggregates of one shard (or of a merged
/// cover): counts plus ExactSum totals, so the derived means are bitwise
/// identical however the grid was partitioned.
struct GtAggregate {
  std::size_t count = 0;
  ExactSum latency_ms_sum;
  ExactSum energy_mj_sum;
  ExactSum latency_error_pct_sum;
  ExactSum energy_error_pct_sum;

  void add(const GtMeasurement& m);
  void merge(const GtAggregate& other);

  [[nodiscard]] double mean_latency_ms() const {
    return count ? latency_ms_sum.value() / double(count) : 0.0;
  }
  [[nodiscard]] double mean_energy_mj() const {
    return count ? energy_mj_sum.value() / double(count) : 0.0;
  }
  [[nodiscard]] double mean_latency_error_pct() const {
    return count ? latency_error_pct_sum.value() / double(count) : 0.0;
  }
  [[nodiscard]] double mean_energy_error_pct() const {
    return count ? energy_error_pct_sum.value() / double(count) : 0.0;
  }

  /// Exact (representation-independent) equality of counts and sums.
  [[nodiscard]] bool same_values(const GtAggregate& other) const;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static GtAggregate from_json(const Json& j);
};

/// Streaming reduction over (index, latency, energy) triples fed in
/// ascending index order. Mergeable across shards.
///
/// In ground-truth mode (constructed with ground_truth = true) the
/// latency/energy fed to add() are the *measured* per-point means, every
/// record must carry a GtMeasurement, and the reduction additionally folds
/// the GtAggregate. The aggregate is present even while empty, so a
/// zero-record GT shard is still distinguishable from an analytical one.
class PartialReduction {
 public:
  explicit PartialReduction(ShardIdentity id = {}, bool ground_truth = false);

  /// Fold one scenario result in. Indices must arrive in ascending order.
  /// `gt` is required in ground-truth mode and rejected otherwise (a
  /// mismatch means the record stream and the spec disagree).
  void add(std::size_t global_index, double latency_ms, double energy_mj,
           const GtMeasurement* gt = nullptr);

  [[nodiscard]] bool ground_truth() const noexcept { return gt_.has_value(); }
  /// The GT aggregate, or nullptr for analytical reductions.
  [[nodiscard]] const GtAggregate* gt() const noexcept {
    return gt_ ? &*gt_ : nullptr;
  }

  [[nodiscard]] const ShardIdentity& identity() const noexcept { return id_; }
  [[nodiscard]] std::size_t evaluated() const noexcept { return evaluated_; }
  [[nodiscard]] std::size_t best_latency_index() const noexcept {
    return best_latency_index_;
  }
  [[nodiscard]] std::size_t best_energy_index() const noexcept {
    return best_energy_index_;
  }
  [[nodiscard]] double min_latency_ms() const noexcept {
    return min_latency_ms_;
  }
  [[nodiscard]] double max_latency_ms() const noexcept {
    return max_latency_ms_;
  }
  [[nodiscard]] double min_energy_mj() const noexcept {
    return min_energy_mj_;
  }
  [[nodiscard]] double max_energy_mj() const noexcept {
    return max_energy_mj_;
  }
  /// This shard's Pareto frontier, latency-ascending.
  [[nodiscard]] std::vector<ParetoPoint> pareto() const;

  // Throughput stats of the process that built this reduction, carried
  // into the summary (not part of the bitwise identity — wall time is
  // non-deterministic by nature). A resumed run counts from zero, and a
  // fold of a stream carries zeros: per-worker timings live in the
  // --metrics-out snapshots, never in results.
  double wall_ms = 0;
  std::size_t threads = 1;

 private:
  ShardIdentity id_;
  std::optional<GtAggregate> gt_;
  std::size_t evaluated_ = 0;
  std::size_t last_index_ = 0;
  std::size_t best_latency_index_ = 0, best_energy_index_ = 0;
  double min_latency_ms_ = 0, max_latency_ms_ = 0;
  double min_energy_mj_ = 0, max_energy_mj_ = 0;
  /// Frontier keyed by latency; values (energy, index). Latencies are
  /// unique and energies strictly decreasing along the key order.
  std::map<double, std::pair<double, std::size_t>> frontier_;
};

// ---- the sink ----------------------------------------------------------

class StreamingSink {
 public:
  /// State recovered from an existing record stream.
  struct Recovery {
    std::size_t records = 0;      ///< valid record prefix length.
    std::size_t valid_bytes = 0;  ///< prefix size; anything beyond is torn.
    PartialReduction partial;     ///< reduction rebuilt from the prefix.
  };

  /// Scan the existing record stream for the longest prefix of valid
  /// records whose global indices match the plan's enumeration for this
  /// shard, on the chunk grid. A torn tail (a killed worker's partial
  /// final write) ends the prefix silently; corruption throws a named
  /// std::runtime_error. Missing file → zero records.
  [[nodiscard]] static Recovery scan_existing(const SinkOptions& options,
                                              const ShardIdentity& id,
                                              const ShardPlan& plan);

  /// Open the record stream. When `recovered` is non-null the stream is
  /// truncated to the recovered prefix and appended to (resume); otherwise
  /// it is created fresh. Throws std::runtime_error on I/O failure.
  StreamingSink(SinkOptions options, ShardIdentity id,
                const Recovery* recovered = nullptr);

  StreamingSink(const StreamingSink&) = delete;
  StreamingSink& operator=(const StreamingSink&) = delete;

  /// Append one analytical result (ascending global index). Flushes
  /// automatically every chunk_records appends. Throws in GT mode (the
  /// record would be missing its measurement).
  void append(std::size_t global_index, const core::PerformanceReport& report);
  /// Append one evaluated point — the evaluator-aware path: analytical
  /// points feed the prediction, ground-truth points feed the measurement
  /// and the GtAggregate. Point kind must match the sink's mode.
  void append(std::size_t global_index, const EvaluatedPoint& point);

  /// Write buffered records to disk as one chunk.
  void flush();

  /// Attach worker throughput stats to the reduction (carried into the
  /// summary; not part of the bitwise identity).
  void set_stats(double wall_ms, std::size_t threads) {
    partial_.wall_ms = wall_ms;
    partial_.threads = threads;
  }

  /// Flush. Returns the reduction.
  PartialReduction finalize();

  [[nodiscard]] std::size_t records_written() const noexcept {
    return records_written_;
  }
  [[nodiscard]] const PartialReduction& partial() const noexcept {
    return partial_;
  }
  /// The record stream's path: <output_stem>.xrb.
  [[nodiscard]] const std::string& records_path() const noexcept {
    return sink_.path();
  }

 private:
  SinkOptions options_;
  PartialReduction partial_;
  RecordSink sink_;
  std::size_t buffered_records_ = 0;
  std::size_t records_written_ = 0;
};

}  // namespace xr::runtime::shard
