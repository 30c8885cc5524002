// The shard record model — what every stream writer and reader shares.
//
// A shard worker streams one record per evaluated grid point into
// <stem>.xrb, the binary columnar stream of binary_stream.h, and every
// reader (resume scan, merge fold, the adaptive pass-2 copy, sweep_plan's
// refinement selection, sweep_merge --dump) decodes the same record model:
// a global index, a PerformanceReport full or slim, and an optional
// GtMeasurement. A PartialReduction is a pure function of the decoded
// totals, so K shards merge bitwise identical to the monolithic run.
//
// Record shapes:
//
//   full          {index, LatencyBreakdown, EnergyBreakdown, sensors[]}
//   metrics-only  {index, latency total, energy total}   (slim)
//   either + gt   {seed, frames, mean latency/energy, model error %}
//
// record_line() renders one record as a JSON line; `sweep_merge --dump`
// prints a stream through it, so records stay greppable without a second
// writer.
//
// Crash contract: a sink buffers chunk_records records between flushes and
// each flush leaves the file a valid prefix, so a killed worker loses at
// most one chunk; StreamingSink::scan_existing recovers the longest valid
// prefix (a torn *tail* truncates silently, mid-file corruption is a named
// error — see binary_stream.h).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/framework.h"
#include "runtime/shard/evaluator.h"
#include "runtime/shard/jsonio.h"
#include "runtime/shard/shard_plan.h"

namespace xr::runtime::shard {

// ---- the record file ---------------------------------------------------

/// The one record encoding. Kept as a name so request documents that
/// spell "format": "binary" still parse (ExecutionSpec::format).
enum class RecordFormat { kBinary };

/// "binary" → kBinary. The retired text encoding is refused by a named
/// std::invalid_argument that points at `sweep_merge --dump`, which prints
/// a stream as JSON lines; any other name throws std::invalid_argument.
[[nodiscard]] RecordFormat format_from_name(const std::string& name);

inline constexpr std::string_view kRecordExtension = ".xrb";
/// <stem>.xrb — the one place the mapping lives.
[[nodiscard]] std::string record_path(const std::string& stem);
/// True when the path names a record stream (ends in .xrb).
[[nodiscard]] bool is_record_path(std::string_view path) noexcept;

// ---- identity ----------------------------------------------------------

/// Which shard of which partition a document belongs to; every record
/// stream and reduction carries this so merges can validate coverage.
struct ShardIdentity {
  std::size_t shard_id = 0;
  std::size_t shard_count = 1;
  ShardStrategy strategy = ShardStrategy::kRange;
  std::size_t grid_size = 0;
  /// Fingerprint of the grid the records came from (grid_fingerprint() of
  /// the GridSpec for worker-produced documents; 0 when unused). Resume
  /// refuses a stream whose fingerprint differs — index sequences alone
  /// cannot tell two same-shape grids apart — and merge refuses to fold
  /// partials from different grids.
  std::uint64_t grid_fingerprint = 0;
};

// ---- the record model --------------------------------------------------

struct ParsedRecord {
  std::size_t index = 0;
  core::PerformanceReport report;   ///< slim records fill only the totals.
  std::optional<GtMeasurement> gt;  ///< present for ground-truth records.
  bool slim = false;                ///< record was in metrics-only form.
};

/// Render one record as a single JSON line (no trailing newline), doubles
/// in shortest round-trip form. `gt` (when non-null) appends the
/// ground-truth measurement block; `metrics_only` emits the slim
/// totals-only shape.
[[nodiscard]] std::string record_line(std::size_t global_index,
                                      const core::PerformanceReport& report,
                                      const GtMeasurement* gt = nullptr,
                                      bool metrics_only = false);

/// The knobs of one record stream.
struct SinkOptions {
  /// File written: <output_stem>.xrb.
  std::string output_stem;
  /// Records per chunk: each flush frames one chunk, and resume accepts
  /// only prefixes on this chunk grid. Also bounds worker memory and what
  /// a kill can lose. 0 is treated as 1.
  std::size_t chunk_records = 64;
  /// Ground-truth mode: records must carry GtMeasurements, the reduction
  /// runs over the measured means, and the partial carries a GtAggregate
  /// (even while empty).
  bool ground_truth = false;
  /// Metrics mode: write slim totals-only records. The reduction (and so
  /// the merge law) is unaffected; resume rewrites a stream whose record
  /// shape disagrees with this flag.
  bool metrics_only = false;
};

}  // namespace xr::runtime::shard
