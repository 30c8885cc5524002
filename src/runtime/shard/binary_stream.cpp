#include "runtime/shard/binary_stream.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "runtime/shard/streaming_sink.h"

namespace xr::runtime::shard {

// The column codec memcpys doubles/u64s straight into the stream; on a
// big-endian host it would need byte swaps this repo has no target for.
static_assert(std::endian::native == std::endian::little,
              "binary record streams assume a little-endian host");

namespace {

constexpr std::uint64_t kFileMagic = 0x0A3143455242'5258ull;   // "XRBREC1\n"
constexpr std::uint64_t kChunkMagic = 0x314B4E4843'425258ull;  // "XRBCHNK1"

constexpr std::uint64_t kFlagMetricsOnly = 1ull << 0;
constexpr std::uint64_t kFlagGroundTruth = 1ull << 1;
constexpr std::uint64_t kKnownFlags = kFlagMetricsOnly | kFlagGroundTruth;

std::uint64_t fnv1a_bytes(const unsigned char* data, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

// ---- little-endian put/take --------------------------------------------

void put_u64(std::string& out, std::uint64_t v) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  out.append(raw, 8);
}

void put_f64(std::string& out, double v) {
  char raw[8];
  std::memcpy(raw, &v, 8);
  out.append(raw, 8);
}

/// Bounds-checked reader over one decoded byte block; running off the end
/// means the block lies about its own extent — corruption, not a tear.
struct Cursor {
  const unsigned char* p;
  const unsigned char* end;
  const std::string& path;

  std::uint64_t take_u64() {
    if (end - p < 8)
      throw std::runtime_error("binary record stream: corrupt chunk in " +
                               path + " (column block overruns payload)");
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  double take_f64() {
    if (end - p < 8)
      throw std::runtime_error("binary record stream: corrupt chunk in " +
                               path + " (column block overruns payload)");
    double v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  void take_bytes(char* dst, std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n)
      throw std::runtime_error("binary record stream: corrupt chunk in " +
                               path + " (column block overruns payload)");
    if (dst) std::memcpy(dst, p, n);
    p += n;
  }
};

std::size_t padded8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

std::uint64_t strategy_code(ShardStrategy s) {
  return s == ShardStrategy::kStrided ? 1 : 0;
}

ShardStrategy strategy_from_code(std::uint64_t code,
                                 const std::string& path) {
  if (code == 0) return ShardStrategy::kRange;
  if (code == 1) return ShardStrategy::kStrided;
  throw std::runtime_error("binary record stream: " + path +
                           " header carries an unknown shard strategy");
}

// ---- file header -------------------------------------------------------

std::string encode_header(const ShardIdentity& id, bool ground_truth,
                          bool metrics_only) {
  std::string out;
  out.reserve(kBinaryFileHeaderBytes);
  put_u64(out, kFileMagic);
  put_u64(out, kBinaryVersion);
  put_u64(out, (metrics_only ? kFlagMetricsOnly : 0) |
                   (ground_truth ? kFlagGroundTruth : 0));
  put_u64(out, id.shard_id);
  put_u64(out, id.shard_count);
  put_u64(out, strategy_code(id.strategy));
  put_u64(out, id.grid_size);
  put_u64(out, id.grid_fingerprint);
  return out;
}

BinaryHeaderInfo decode_header(const unsigned char* raw,
                               const std::string& path) {
  Cursor c{raw, raw + kBinaryFileHeaderBytes, path};
  if (c.take_u64() != kFileMagic)
    throw std::runtime_error("binary record stream: " + path +
                             " is not an xrb stream (bad magic)");
  const std::uint64_t version = c.take_u64();
  if (version != kBinaryVersion)
    throw std::runtime_error(
        "binary record stream: " + path + " has unsupported version " +
        std::to_string(version) + " (this build reads version " +
        std::to_string(kBinaryVersion) + ")");
  const std::uint64_t flags = c.take_u64();
  if (flags & ~kKnownFlags)
    throw std::runtime_error("binary record stream: " + path +
                             " header carries unknown shape flags");
  BinaryHeaderInfo info;
  info.metrics_only = (flags & kFlagMetricsOnly) != 0;
  info.ground_truth = (flags & kFlagGroundTruth) != 0;
  info.id.shard_id = c.take_u64();
  info.id.shard_count = c.take_u64();
  info.id.strategy = strategy_from_code(c.take_u64(), path);
  info.id.grid_size = c.take_u64();
  info.id.grid_fingerprint = c.take_u64();
  return info;
}

/// Header read that distinguishes a SHORT file (a kill before the header
/// landed; nullopt) from an invalid one (named error). Missing file is
/// also nullopt.
std::optional<BinaryHeaderInfo> try_read_header(std::ifstream& in,
                                                const std::string& path) {
  unsigned char raw[kBinaryFileHeaderBytes];
  if (!in) return std::nullopt;
  in.read(reinterpret_cast<char*>(raw), kBinaryFileHeaderBytes);
  if (static_cast<std::size_t>(in.gcount()) < kBinaryFileHeaderBytes)
    return std::nullopt;
  return decode_header(raw, path);
}

// ---- chunk codec -------------------------------------------------------

struct ChunkHeader {
  std::uint64_t record_count = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
};

/// The chunk header is outside the checksum: refuse a record_count the
/// payload cannot hold before anything is sized from it. Every record
/// takes at least its fixed columns (full shape: index, 13 latency and 14
/// energy columns, flags, sensor count; plus the total_sensors word).
void check_record_count(std::uint64_t m, std::size_t payload_bytes,
                        bool ground_truth, bool metrics_only,
                        const std::string& path) {
  const std::size_t per_record =
      8 * ((metrics_only ? 3 : 30) + (ground_truth ? 6 : 0));
  const std::size_t fixed = metrics_only ? 0 : 8;
  if (payload_bytes < fixed || m > (payload_bytes - fixed) / per_record)
    throw std::runtime_error(
        "binary record stream: corrupt chunk in " + path + " (record count " +
        std::to_string(m) + " exceeds what its " +
        std::to_string(payload_bytes) + "-byte payload holds)");
}

std::string encode_chunk_payload(
    const std::vector<ParsedRecord>& records, bool ground_truth,
    bool metrics_only) {
  std::string out;
  for (const ParsedRecord& r : records) put_u64(out, r.index);
  if (metrics_only) {
    for (const ParsedRecord& r : records)
      put_f64(out, r.report.latency.total);
    for (const ParsedRecord& r : records) put_f64(out, r.report.energy.total);
  } else {
    const auto lat_col = [&](double core::LatencyBreakdown::* field) {
      for (const ParsedRecord& r : records) put_f64(out, r.report.latency.*field);
    };
    lat_col(&core::LatencyBreakdown::frame_generation);
    lat_col(&core::LatencyBreakdown::volumetric);
    lat_col(&core::LatencyBreakdown::external_sensors);
    lat_col(&core::LatencyBreakdown::rendering);
    lat_col(&core::LatencyBreakdown::buffer_wait);
    lat_col(&core::LatencyBreakdown::frame_conversion);
    lat_col(&core::LatencyBreakdown::encoding);
    lat_col(&core::LatencyBreakdown::local_inference);
    lat_col(&core::LatencyBreakdown::remote_inference);
    lat_col(&core::LatencyBreakdown::transmission);
    lat_col(&core::LatencyBreakdown::handoff);
    lat_col(&core::LatencyBreakdown::cooperation);
    lat_col(&core::LatencyBreakdown::total);
    const auto en_col = [&](double core::EnergyBreakdown::* field) {
      for (const ParsedRecord& r : records) put_f64(out, r.report.energy.*field);
    };
    en_col(&core::EnergyBreakdown::frame_generation);
    en_col(&core::EnergyBreakdown::volumetric);
    en_col(&core::EnergyBreakdown::external_sensors);
    en_col(&core::EnergyBreakdown::rendering);
    en_col(&core::EnergyBreakdown::frame_conversion);
    en_col(&core::EnergyBreakdown::encoding);
    en_col(&core::EnergyBreakdown::local_inference);
    en_col(&core::EnergyBreakdown::remote_inference);
    en_col(&core::EnergyBreakdown::transmission);
    en_col(&core::EnergyBreakdown::handoff);
    en_col(&core::EnergyBreakdown::cooperation);
    en_col(&core::EnergyBreakdown::thermal);
    en_col(&core::EnergyBreakdown::base);
    en_col(&core::EnergyBreakdown::total);
    for (const ParsedRecord& r : records)
      put_u64(out, (r.report.latency.cooperation_in_total ? 1ull : 0) |
                       (r.report.energy.cooperation_in_total ? 2ull : 0));
    std::size_t total_sensors = 0;
    for (const ParsedRecord& r : records)
      total_sensors += r.report.sensors.size();
    put_u64(out, total_sensors);
    for (const ParsedRecord& r : records)
      put_u64(out, r.report.sensors.size());
    std::string names;
    for (const ParsedRecord& r : records)
      for (const core::SensorReport& s : r.report.sensors) {
        put_u64(out, s.name.size());
        names += s.name;
      }
    names.resize(padded8(names.size()), '\0');
    out += names;
    const auto sensor_col = [&](double core::SensorReport::* field) {
      for (const ParsedRecord& r : records)
        for (const core::SensorReport& s : r.report.sensors)
          put_f64(out, s.*field);
    };
    sensor_col(&core::SensorReport::average_aoi_ms);
    sensor_col(&core::SensorReport::processed_hz);
    sensor_col(&core::SensorReport::roi);
    for (const ParsedRecord& r : records)
      for (const core::SensorReport& s : r.report.sensors)
        put_u64(out, s.fresh ? 1 : 0);
  }
  if (ground_truth) {
    for (const ParsedRecord& r : records) put_u64(out, r.gt->seed);
    for (const ParsedRecord& r : records) put_u64(out, r.gt->frames);
    for (const ParsedRecord& r : records) put_f64(out, r.gt->mean_latency_ms);
    for (const ParsedRecord& r : records) put_f64(out, r.gt->mean_energy_mj);
    for (const ParsedRecord& r : records)
      put_f64(out, r.gt->latency_error_pct);
    for (const ParsedRecord& r : records)
      put_f64(out, r.gt->energy_error_pct);
  }
  return out;
}

std::vector<ParsedRecord> decode_chunk_payload(
    const std::vector<unsigned char>& payload, std::uint64_t m,
    bool ground_truth, bool metrics_only, const std::string& path) {
  check_record_count(m, payload.size(), ground_truth, metrics_only, path);
  std::vector<ParsedRecord> records(m);
  Cursor c{payload.data(), payload.data() + payload.size(), path};
  for (auto& r : records) r.index = c.take_u64();
  if (metrics_only) {
    for (auto& r : records) {
      r.slim = true;
      r.report.latency.total = c.take_f64();
    }
    for (auto& r : records) r.report.energy.total = c.take_f64();
  } else {
    const auto lat_col = [&](double core::LatencyBreakdown::* field) {
      for (auto& r : records) r.report.latency.*field = c.take_f64();
    };
    lat_col(&core::LatencyBreakdown::frame_generation);
    lat_col(&core::LatencyBreakdown::volumetric);
    lat_col(&core::LatencyBreakdown::external_sensors);
    lat_col(&core::LatencyBreakdown::rendering);
    lat_col(&core::LatencyBreakdown::buffer_wait);
    lat_col(&core::LatencyBreakdown::frame_conversion);
    lat_col(&core::LatencyBreakdown::encoding);
    lat_col(&core::LatencyBreakdown::local_inference);
    lat_col(&core::LatencyBreakdown::remote_inference);
    lat_col(&core::LatencyBreakdown::transmission);
    lat_col(&core::LatencyBreakdown::handoff);
    lat_col(&core::LatencyBreakdown::cooperation);
    lat_col(&core::LatencyBreakdown::total);
    const auto en_col = [&](double core::EnergyBreakdown::* field) {
      for (auto& r : records) r.report.energy.*field = c.take_f64();
    };
    en_col(&core::EnergyBreakdown::frame_generation);
    en_col(&core::EnergyBreakdown::volumetric);
    en_col(&core::EnergyBreakdown::external_sensors);
    en_col(&core::EnergyBreakdown::rendering);
    en_col(&core::EnergyBreakdown::frame_conversion);
    en_col(&core::EnergyBreakdown::encoding);
    en_col(&core::EnergyBreakdown::local_inference);
    en_col(&core::EnergyBreakdown::remote_inference);
    en_col(&core::EnergyBreakdown::transmission);
    en_col(&core::EnergyBreakdown::handoff);
    en_col(&core::EnergyBreakdown::cooperation);
    en_col(&core::EnergyBreakdown::thermal);
    en_col(&core::EnergyBreakdown::base);
    en_col(&core::EnergyBreakdown::total);
    for (auto& r : records) {
      const std::uint64_t flags = c.take_u64();
      if (flags & ~3ull)
        throw std::runtime_error(
            "binary record stream: corrupt chunk in " + path +
            " (unknown breakdown flags)");
      r.report.latency.cooperation_in_total = (flags & 1ull) != 0;
      r.report.energy.cooperation_in_total = (flags & 2ull) != 0;
    }
    const std::uint64_t total_sensors = c.take_u64();
    if (total_sensors > payload.size() / 8)
      throw std::runtime_error("binary record stream: corrupt chunk in " +
                               path +
                               " (sensor total exceeds the payload)");
    std::uint64_t counted = 0;
    for (auto& r : records) {
      const std::uint64_t n = c.take_u64();
      counted += n;
      if (counted > total_sensors)
        throw std::runtime_error(
            "binary record stream: corrupt chunk in " + path +
            " (sensor counts exceed the declared total)");
      r.report.sensors.resize(n);
    }
    if (counted != total_sensors)
      throw std::runtime_error("binary record stream: corrupt chunk in " +
                               path +
                               " (sensor counts disagree with the total)");
    std::size_t names_bytes = 0;
    for (auto& r : records)
      for (auto& s : r.report.sensors) {
        const std::uint64_t len = c.take_u64();
        if (len > payload.size() - names_bytes)
          throw std::runtime_error(
              "binary record stream: corrupt chunk in " + path +
              " (sensor names overrun payload)");
        s.name.resize(len);
        names_bytes += len;
      }
    for (auto& r : records)
      for (auto& s : r.report.sensors)
        if (!s.name.empty()) c.take_bytes(s.name.data(), s.name.size());
    c.take_bytes(nullptr, padded8(names_bytes) - names_bytes);
    const auto sensor_col = [&](double core::SensorReport::* field) {
      for (auto& r : records)
        for (auto& s : r.report.sensors) s.*field = c.take_f64();
    };
    sensor_col(&core::SensorReport::average_aoi_ms);
    sensor_col(&core::SensorReport::processed_hz);
    sensor_col(&core::SensorReport::roi);
    for (auto& r : records)
      for (auto& s : r.report.sensors) s.fresh = c.take_u64() != 0;
  }
  if (ground_truth) {
    for (auto& r : records) r.gt.emplace();
    for (auto& r : records) r.gt->seed = c.take_u64();
    for (auto& r : records) r.gt->frames = c.take_u64();
    for (auto& r : records) r.gt->mean_latency_ms = c.take_f64();
    for (auto& r : records) r.gt->mean_energy_mj = c.take_f64();
    for (auto& r : records) r.gt->latency_error_pct = c.take_f64();
    for (auto& r : records) r.gt->energy_error_pct = c.take_f64();
  }
  if (c.p != c.end)
    throw std::runtime_error("binary record stream: corrupt chunk in " +
                             path + " (trailing bytes after the columns)");
  return records;
}

/// Read one chunk header+payload. Returns false at a clean end of stream.
/// `bytes_left` is what the file holds past the current position; a
/// declared payload_bytes beyond it is a tear, so nothing is allocated
/// from a size the file cannot back. `tolerate_tear` (the resume scan)
/// turns a short header/payload into a clean stop instead of a "torn"
/// error; corruption throws either way.
bool read_chunk(std::ifstream& in, const std::string& path,
                bool tolerate_tear, std::uint64_t& bytes_left,
                ChunkHeader& header, std::vector<unsigned char>& payload) {
  if (bytes_left == 0) return false;
  unsigned char raw[kBinaryChunkHeaderBytes];
  in.read(reinterpret_cast<char*>(raw), kBinaryChunkHeaderBytes);
  if (static_cast<std::size_t>(in.gcount()) < kBinaryChunkHeaderBytes) {
    if (tolerate_tear) return false;
    throw std::runtime_error("binary record stream: torn chunk header in " +
                             path);
  }
  bytes_left -= std::min<std::uint64_t>(bytes_left, kBinaryChunkHeaderBytes);
  Cursor c{raw, raw + kBinaryChunkHeaderBytes, path};
  if (c.take_u64() != kChunkMagic)
    throw std::runtime_error("binary record stream: corrupt chunk in " +
                             path + " (bad chunk magic)");
  header.record_count = c.take_u64();
  header.payload_bytes = c.take_u64();
  header.checksum = c.take_u64();
  if (header.payload_bytes % 8 != 0)
    throw std::runtime_error("binary record stream: corrupt chunk in " +
                             path + " (payload not 8-byte aligned)");
  if (header.payload_bytes > bytes_left) {
    if (tolerate_tear) return false;
    throw std::runtime_error(
        "binary record stream: torn chunk payload in " + path + " (" +
        std::to_string(header.payload_bytes) + " bytes declared, " +
        std::to_string(bytes_left) + " left in the file)");
  }
  payload.resize(header.payload_bytes);
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(header.payload_bytes));
  if (static_cast<std::size_t>(in.gcount()) < header.payload_bytes) {
    if (tolerate_tear) return false;
    throw std::runtime_error("binary record stream: torn chunk payload in " +
                             path);
  }
  bytes_left -= header.payload_bytes;
  if (fnv1a_bytes(payload.data(), payload.size()) != header.checksum)
    throw std::runtime_error("binary record stream: corrupt chunk in " +
                             path + " (checksum mismatch)");
  return true;
}

/// Bytes in the file past its header (0 when the size cannot be read; the
/// header read has already failed then).
std::uint64_t bytes_after_header(const std::string& path) {
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  return ec || size < kBinaryFileHeaderBytes ? 0
                                             : size - kBinaryFileHeaderBytes;
}

/// Open a complete stream for a strict read: the file and its header must
/// both be there.
BinaryHeaderInfo open_strict(std::ifstream& in, const std::string& path) {
  if (!in)
    throw std::runtime_error("binary record stream: cannot open " + path);
  const std::optional<BinaryHeaderInfo> header = try_read_header(in, path);
  if (!header)
    throw std::runtime_error(
        "binary record stream: missing or truncated header in " + path);
  return *header;
}

}  // namespace

// ---- sink --------------------------------------------------------------

RecordSink::RecordSink(const SinkOptions& options, const ShardIdentity& id,
                       const std::size_t* resume_valid_bytes)
    : path_(record_path(options.output_stem)),
      ground_truth_(options.ground_truth),
      metrics_only_(options.metrics_only) {
  // A recovery below one full header means the stream never became
  // valid — rewrite it fresh, header included.
  if (resume_valid_bytes && *resume_valid_bytes >= kBinaryFileHeaderBytes) {
    std::error_code ec;
    if (std::filesystem::exists(path_, ec))
      std::filesystem::resize_file(path_, *resume_valid_bytes);
    file_ = std::fopen(path_.c_str(), "ab");
    if (!file_) throw std::runtime_error("RecordSink: cannot open " + path_);
  } else {
    file_ = std::fopen(path_.c_str(), "wb");
    if (!file_) throw std::runtime_error("RecordSink: cannot open " + path_);
    const std::string header =
        encode_header(id, ground_truth_, metrics_only_);
    if (std::fwrite(header.data(), 1, header.size(), file_) !=
            header.size() ||
        std::fflush(file_) != 0) {
      std::fclose(file_);
      throw std::runtime_error("RecordSink: cannot write header to " + path_);
    }
  }
  pending_.reserve(std::max<std::size_t>(options.chunk_records, 1));
}

RecordSink::~RecordSink() { std::fclose(file_); }

void RecordSink::append(std::size_t global_index,
                        const core::PerformanceReport& report,
                        const GtMeasurement* gt) {
  if (ground_truth_ && !gt)
    throw std::invalid_argument(
        "RecordSink: ground-truth stream fed a record without a "
        "measurement");
  ParsedRecord r;
  r.index = global_index;
  r.slim = metrics_only_;
  if (metrics_only_) {
    r.report.latency.total = report.latency.total;
    r.report.energy.total = report.energy.total;
  } else {
    r.report = report;
  }
  if (gt) r.gt = *gt;
  pending_.push_back(std::move(r));
}

std::size_t RecordSink::flush() {
  std::size_t bytes = 0;
  if (!pending_.empty()) {
    const std::string payload =
        encode_chunk_payload(pending_, ground_truth_, metrics_only_);
    std::string frame;
    frame.reserve(kBinaryChunkHeaderBytes + payload.size());
    put_u64(frame, kChunkMagic);
    put_u64(frame, pending_.size());
    put_u64(frame, payload.size());
    put_u64(frame, fnv1a_bytes(
                       reinterpret_cast<const unsigned char*>(payload.data()),
                       payload.size()));
    frame += payload;
    if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size())
      throw std::runtime_error("RecordSink: short write to " + path_);
    bytes = frame.size();
    pending_.clear();
  }
  if (std::fflush(file_) != 0)
    throw std::runtime_error("RecordSink: flush failed for " + path_);
  return bytes;
}

// ---- source ------------------------------------------------------------

RecordSource::RecordSource(std::string path)
    : path_(std::move(path)),
      in_(path_, std::ios::binary),
      bytes_left_(bytes_after_header(path_)),
      info_(open_strict(in_, path_)) {}

bool RecordSource::next(ParsedRecord& out) {
  while (cursor_ >= decoded_.size()) {
    ChunkHeader header;
    std::vector<unsigned char> payload;
    if (!read_chunk(in_, path_, /*tolerate_tear=*/false, bytes_left_, header,
                    payload))
      return false;
    decoded_ = decode_chunk_payload(payload, header.record_count,
                                    info_.ground_truth, info_.metrics_only,
                                    path_);
    cursor_ = 0;
  }
  out = decoded_[cursor_++];
  return true;
}

// ---- scans and folds ---------------------------------------------------

BinaryHeaderInfo read_binary_header(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return open_strict(in, path);
}

BinaryRecovery scan_binary_prefix(
    const SinkOptions& options, const ShardIdentity& id, const ShardPlan& plan,
    const std::function<void(const ParsedRecord&)>& fold) {
  BinaryRecovery rec;
  const std::string path = record_path(options.output_stem);
  std::ifstream in(path, std::ios::binary);
  if (!in) return rec;
  const std::optional<BinaryHeaderInfo> header = try_read_header(in, path);
  if (!header) return rec;  // torn header: rewrite from scratch
  // A wrong identity or fingerprint is a refusal, not a rewrite — the
  // stream belongs to a different shard or sweep, and silently clobbering
  // it would hide an operator error. This header check is resume's whole
  // identity guard, and it runs before anything is truncated.
  if (header->id.shard_id != id.shard_id ||
      header->id.shard_count != id.shard_count ||
      header->id.strategy != id.strategy ||
      header->id.grid_size != id.grid_size ||
      header->id.grid_fingerprint != id.grid_fingerprint)
    throw std::runtime_error(
        "binary record stream: " + path +
        " carries a different shard identity or sweep fingerprint than the "
        "resuming spec; refusing to resume");
  // A shape mismatch means the stream belongs to a different run
  // configuration of the same sweep, so resume rewrites it rather than
  // mixing shapes.
  if (header->ground_truth != options.ground_truth ||
      header->metrics_only != options.metrics_only)
    return BinaryRecovery{};

  const std::size_t shard_n = plan.shard_size(id.shard_id);
  const std::size_t full = std::max<std::size_t>(options.chunk_records, 1);
  std::uint64_t bytes_left = bytes_after_header(path);
  rec.valid_bytes = kBinaryFileHeaderBytes;
  ChunkHeader chunk;
  std::vector<unsigned char> payload;
  while (rec.records < shard_n &&
         read_chunk(in, path, /*tolerate_tear=*/true, bytes_left, chunk,
                    payload)) {
    // Decode first: a byte-complete chunk whose count disagrees with its
    // payload is corruption, not an undersized tail to drop.
    const std::vector<ParsedRecord> records =
        decode_chunk_payload(payload, chunk.record_count,
                             header->ground_truth, header->metrics_only, path);
    // Chunk-grid acceptance keeps resumed files byte-identical to clean
    // runs: only full chunks count, plus an undersized final chunk that
    // completes the shard.
    if (records.size() != full && rec.records + records.size() != shard_n)
      break;
    if (rec.records + records.size() > shard_n) break;
    for (std::size_t k = 0; k < records.size(); ++k)
      if (records[k].index != plan.global_index(id.shard_id, rec.records + k))
        return rec;  // foreign indices: resume re-evaluates from here
    for (const ParsedRecord& r : records) fold(r);
    rec.records += records.size();
    rec.valid_bytes += kBinaryChunkHeaderBytes + chunk.payload_bytes;
  }
  return rec;
}

PartialReduction fold_binary_partial(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const BinaryHeaderInfo header = open_strict(in, path);
  std::uint64_t bytes_left = bytes_after_header(path);
  PartialReduction partial(header.id, header.ground_truth);
  ChunkHeader chunk;
  std::vector<unsigned char> payload;
  while (read_chunk(in, path, /*tolerate_tear=*/false, bytes_left, chunk,
                    payload)) {
    // Feed add() straight from the decoded columns — no PerformanceReport
    // or sensor rehydration on the merge path.
    check_record_count(chunk.record_count, payload.size(), header.ground_truth,
                       header.metrics_only, path);
    const std::size_t m = chunk.record_count;
    const std::size_t col = m * 8;
    const unsigned char* base = payload.data();
    const auto u64_at = [&](std::size_t byte_offset, std::size_t i) {
      std::uint64_t v;
      if (byte_offset + (i + 1) * 8 > payload.size())
        throw std::runtime_error("binary record stream: corrupt chunk in " +
                                 path +
                                 " (column block overruns payload)");
      std::memcpy(&v, base + byte_offset + i * 8, 8);
      return v;
    };
    const auto f64_at = [&](std::size_t byte_offset, std::size_t i) {
      double v;
      if (byte_offset + (i + 1) * 8 > payload.size())
        throw std::runtime_error("binary record stream: corrupt chunk in " +
                                 path +
                                 " (column block overruns payload)");
      std::memcpy(&v, base + byte_offset + i * 8, 8);
      return v;
    };
    // Column offsets (bytes from payload start); see binary_stream.h.
    std::size_t lat_total_off, en_total_off, gt_off;
    if (header.metrics_only) {
      lat_total_off = col;           // the single latency column
      en_total_off = col + col;      // the single energy column
      gt_off = 3 * col;
    } else {
      lat_total_off = col + 12 * col;       // 13th latency column
      en_total_off = col + 13 * col + 13 * col;  // 14th energy column
      // Skip breakdown_flags[m], then the sensor blocks sized by S.
      const std::size_t flags_off = col + 13 * col + 14 * col;
      const std::size_t s_off = flags_off + col;
      const std::uint64_t S = u64_at(s_off, 0);
      std::size_t names_bytes = 0;
      const std::size_t name_len_off = s_off + 8 + col;
      for (std::uint64_t k = 0; k < S; ++k) {
        const std::uint64_t len = u64_at(name_len_off, k);
        if (len > payload.size() - names_bytes)
          throw std::runtime_error(
              "binary record stream: corrupt chunk in " + path +
              " (sensor names overrun payload)");
        names_bytes += len;
      }
      gt_off = name_len_off + S * 8 + padded8(names_bytes) + 3 * S * 8 +
               S * 8;
    }
    const std::size_t expected =
        (header.metrics_only ? 3 * col : gt_off) +
        (header.ground_truth ? 6 * col : 0);
    if (payload.size() != expected)
      throw std::runtime_error("binary record stream: corrupt chunk in " +
                               path +
                               " (payload size disagrees with its columns)");
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t index = u64_at(0, i);
      if (header.ground_truth) {
        GtMeasurement gt;
        gt.seed = u64_at(gt_off, i);
        gt.frames = u64_at(gt_off + col, i);
        gt.mean_latency_ms = f64_at(gt_off + 2 * col, i);
        gt.mean_energy_mj = f64_at(gt_off + 3 * col, i);
        gt.latency_error_pct = f64_at(gt_off + 4 * col, i);
        gt.energy_error_pct = f64_at(gt_off + 5 * col, i);
        partial.add(index, gt.mean_latency_ms, gt.mean_energy_mj, &gt);
      } else {
        partial.add(index, f64_at(lat_total_off, i), f64_at(en_total_off, i));
      }
    }
  }
  return partial;
}

}  // namespace xr::runtime::shard
