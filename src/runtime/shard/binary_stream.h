// The record stream: <stem>.xrb, a binary columnar file.
//
// Layout (all integers and doubles little-endian, every block 8-byte
// aligned so a complete stream can be mmap'd and folded in place):
//
//   file header (64 bytes)
//     byte  0  magic   "XRBREC1\n"
//     byte  8  u64 version            (kBinaryVersion = 1)
//     byte 16  u64 shape flags        bit0 metrics_only, bit1 ground_truth
//     byte 24  u64 shard_id
//     byte 32  u64 shard_count
//     byte 40  u64 strategy           (0 range, 1 strided)
//     byte 48  u64 grid_size
//     byte 56  u64 grid_fingerprint   (the sweep fingerprint)
//
//   then zero or more chunks, one per sink flush:
//
//   chunk header (32 bytes)
//     u64 chunk magic  "XRBCHNK1"
//     u64 record_count m
//     u64 payload_bytes
//     u64 checksum                    FNV-1a over the payload bytes
//
//   chunk payload — column blocks, in order:
//     u64    index[m]                 global grid indices, ascending
//     metrics-only shape:
//       f64  latency_total[m], f64 energy_total[m]
//     full shape:
//       f64  latency columns x13      (field order of LatencyBreakdown)
//       f64  energy columns  x14      (field order of EnergyBreakdown)
//       u64  breakdown_flags[m]       bit0/bit1 = cooperation_in_total
//       u64  total_sensors S
//       u64  sensor_count[m]          sensors per record, sum = S
//       u64  name_len[S]; name bytes (concatenated, zero-padded to 8)
//       f64  aoi_ms[S], f64 processed_hz[S], f64 roi[S]; u64 fresh[S]
//     ground-truth streams append:
//       u64  seed[m], u64 frames[m]
//       f64  mean_latency_ms[m], mean_energy_mj[m],
//            latency_error_pct[m], energy_error_pct[m]
//
// Tear taxonomy. The chunk header sits outside the checksum, so every
// reader checks it against the file and the payload before trusting it:
//   * fewer bytes than a chunk header, or a payload_bytes larger than the
//     bytes left in the file — a torn TAIL from a kill. The resume scan
//     stops there and truncates; strict readers raise a named error.
//     Nothing is allocated from a declared size the file cannot hold.
//   * wrong chunk magic, a payload not 8-byte aligned, a checksum
//     mismatch, or a record_count the payload cannot hold or does not
//     exactly fill — CORRUPTION; a named error for every reader, the scan
//     included (record_count is checked before any record is built).
//   * wrong file magic/version/shape flags, or a header identity or
//     fingerprint that disagrees with the resuming spec — refused with a
//     named error (a shape-flag mismatch against the spec instead makes
//     resume rewrite the stream).
//
// Chunk grid. Resume keeps the byte-identity law: the scan accepts only
// chunks of exactly chunk_records records (plus an undersized final chunk
// when it completes the shard), so a resumed worker re-flushes on the same
// chunk boundaries an uninterrupted run would and the bytes come out
// identical. A consistent undersized tail that does not complete the shard
// is dropped silently, re-evaluating at most chunk_records - 1 records —
// within the lose-at-most-one-chunk contract.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "runtime/shard/record_stream.h"

namespace xr::runtime::shard {

class PartialReduction;  // streaming_sink.h (which includes this header)
class ShardPlan;

inline constexpr std::uint64_t kBinaryVersion = 1;
inline constexpr std::size_t kBinaryFileHeaderBytes = 64;
inline constexpr std::size_t kBinaryChunkHeaderBytes = 32;

/// The self-description a stream's file header carries.
struct BinaryHeaderInfo {
  ShardIdentity id;
  bool ground_truth = false;
  bool metrics_only = false;
};

/// Read and validate a stream's file header. Throws std::runtime_error
/// naming the failure on a missing/short file, wrong magic, or an
/// unsupported version.
[[nodiscard]] BinaryHeaderInfo read_binary_header(const std::string& path);

/// Append side: encodes records into <options.output_stem>.xrb. append()
/// buffers; flush() writes the buffer as one chunk and leaves the file a
/// valid prefix. Throws std::runtime_error on I/O failure.
class RecordSink {
 public:
  /// With `resume_valid_bytes` non-null (and at least a header long) the
  /// existing file is truncated to that prefix and appended to — the
  /// scan_existing recovery; otherwise the stream is created fresh,
  /// header included.
  RecordSink(const SinkOptions& options, const ShardIdentity& id,
             const std::size_t* resume_valid_bytes = nullptr);
  ~RecordSink();
  RecordSink(const RecordSink&) = delete;
  RecordSink& operator=(const RecordSink&) = delete;

  /// Buffer one record (`gt` non-null for ground-truth records).
  void append(std::size_t global_index, const core::PerformanceReport& report,
              const GtMeasurement* gt);
  /// Write buffered records as one chunk (no chunk when empty) and
  /// fflush. Returns the bytes written by this call.
  std::size_t flush();
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  bool ground_truth_ = false;
  bool metrics_only_ = false;
  std::FILE* file_ = nullptr;
  std::vector<ParsedRecord> pending_;
};

/// Read side: decodes a complete stream record by record. next() is
/// strict — a torn or corrupt stream throws a named std::runtime_error
/// (readers of complete streams must never silently shorten them); the
/// tolerant longest-valid-prefix scan for resume is scan_binary_prefix.
class RecordSource {
 public:
  /// Throws std::runtime_error when the file cannot be opened or its
  /// header is missing or invalid.
  explicit RecordSource(std::string path);

  /// Decode the next record into `out`. Returns false at a clean end of
  /// stream.
  bool next(ParsedRecord& out);
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  std::ifstream in_;
  std::uint64_t bytes_left_ = 0;  ///< file bytes not yet consumed.
  BinaryHeaderInfo info_;
  std::vector<ParsedRecord> decoded_;
  std::size_t cursor_ = 0;
};

/// The longest valid chunk-aligned prefix of an existing stream (resume).
struct BinaryRecovery {
  std::size_t records = 0;
  std::size_t valid_bytes = 0;  ///< header + accepted chunks.
};

/// Scan <options.output_stem>.xrb for resume: validates the header against
/// `options`/`id` (mismatched identity/fingerprint/version are named
/// errors; a shape-flag mismatch returns an empty recovery so resume
/// rewrites), truncates torn tails silently, throws on corruption, and
/// applies the chunk-grid rule above. `fold` is called once per accepted
/// record in order — the caller rebuilds its PartialReduction through it.
/// A missing file is an empty recovery.
[[nodiscard]] BinaryRecovery scan_binary_prefix(
    const SinkOptions& options, const ShardIdentity& id, const ShardPlan& plan,
    const std::function<void(const ParsedRecord&)>& fold);

/// Fold a COMPLETE stream straight into a PartialReduction without
/// rehydrating rows: the identity comes from the file header and add() is
/// fed directly from the column arrays (no PerformanceReport or sensor
/// reconstruction). Throws named errors on any tear or corruption — merge
/// inputs must be complete. This is the merge's record-operand path.
[[nodiscard]] PartialReduction fold_binary_partial(const std::string& path);

}  // namespace xr::runtime::shard
