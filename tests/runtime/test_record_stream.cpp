// The record-stream contract: the .xrb stream carries the record model
// bit-for-bit in every shape, K shards merge bitwise identical to the
// monolithic run, kill/resume keeps byte identity on the chunk grid, and a
// chunk header that lies about its counts or sizes is a named error, never
// an allocation sized from it or a silent rewrite.
#include "runtime/shard/record_stream.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/framework.h"
#include "obs/registry.h"
#include "runtime/adaptive.h"
#include "runtime/batch_evaluator.h"
#include "runtime/shard/binary_stream.h"
#include "runtime/shard/merge.h"
#include "runtime/shard/streaming_sink.h"
#include "runtime/shard/worker.h"
#include "testbed/experiments.h"

namespace xr::runtime::shard {
namespace {

namespace fs = std::filesystem;

class RecordStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xr_rec_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string stem(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// A small grid over the paper's knobs (9 points).
GridSpec small_spec() {
  GridSpec spec;
  spec.factory = "remote";
  spec.frame_size = 500;
  spec.cpu_ghz = 2.0;
  AxisSpec sizes;
  sizes.knob = "frame_size";
  sizes.numbers = {300, 500, 700};
  spec.axes.push_back(sizes);
  AxisSpec clocks;
  clocks.knob = "cpu_ghz";
  clocks.numbers = {1.0, 2.0, 3.0};
  spec.axes.push_back(clocks);
  return spec;
}

void expect_reports_equal(const core::PerformanceReport& a,
                          const core::PerformanceReport& b) {
  EXPECT_EQ(a.latency.total, b.latency.total);
  EXPECT_EQ(a.latency.buffer_wait, b.latency.buffer_wait);
  EXPECT_EQ(a.energy.total, b.energy.total);
  EXPECT_EQ(a.energy.thermal, b.energy.thermal);
  EXPECT_EQ(a.energy.base, b.energy.base);
  for (core::Segment s : core::all_segments()) {
    EXPECT_EQ(a.latency.segment(s), b.latency.segment(s));
    EXPECT_EQ(a.energy.segment(s), b.energy.segment(s));
  }
  ASSERT_EQ(a.sensors.size(), b.sensors.size());
  for (std::size_t m = 0; m < a.sensors.size(); ++m) {
    EXPECT_EQ(a.sensors[m].name, b.sensors[m].name);
    EXPECT_EQ(a.sensors[m].average_aoi_ms, b.sensors[m].average_aoi_ms);
    EXPECT_EQ(a.sensors[m].processed_hz, b.sensors[m].processed_hz);
    EXPECT_EQ(a.sensors[m].roi, b.sensors[m].roi);
    EXPECT_EQ(a.sensors[m].fresh, b.sensors[m].fresh);
  }
}

TEST_F(RecordStreamTest, FormatHelpers) {
  EXPECT_EQ(format_from_name("binary"), RecordFormat::kBinary);
  EXPECT_THROW((void)format_from_name("csv"), std::invalid_argument);
  EXPECT_EQ(record_path("out/s0"), "out/s0.xrb");
  EXPECT_TRUE(is_record_path("a/b.xrb"));
  EXPECT_FALSE(is_record_path("a/b.summary.json"));
  EXPECT_FALSE(is_record_path("xrb"));
  EXPECT_FALSE(is_record_path(".xrb"));
}

/// The first field in which two reductions differ, or "" when none does:
/// counts, argmins, extrema, frontier and GT sums. Identity and
/// throughput stats are left to the caller.
std::string reduction_diff(const PartialReduction& a,
                           const PartialReduction& b) {
  if (a.evaluated() != b.evaluated()) return "evaluated";
  if (a.best_latency_index() != b.best_latency_index())
    return "best_latency_index";
  if (a.best_energy_index() != b.best_energy_index())
    return "best_energy_index";
  if (a.min_latency_ms() != b.min_latency_ms()) return "min_latency_ms";
  if (a.max_latency_ms() != b.max_latency_ms()) return "max_latency_ms";
  if (a.min_energy_mj() != b.min_energy_mj()) return "min_energy_mj";
  if (a.max_energy_mj() != b.max_energy_mj()) return "max_energy_mj";
  const auto pa = a.pareto(), pb = b.pareto();
  if (pa.size() != pb.size()) return "pareto size";
  for (std::size_t k = 0; k < pa.size(); ++k)
    if (pa[k].index != pb[k].index || pa[k].latency_ms != pb[k].latency_ms ||
        pa[k].energy_mj != pb[k].energy_mj)
      return "pareto[" + std::to_string(k) + "]";
  if (a.ground_truth() != b.ground_truth()) return "evaluator kind";
  if (a.gt() && !a.gt()->same_values(*b.gt())) return "gt sums";
  return "";
}

/// Write records 0..n-1 of `grid` to <stem>.xrb, one chunk per
/// chunk_records, and return the reports written.
std::vector<core::PerformanceReport> write_stream(const SinkOptions& options,
                                                  const ShardIdentity& id,
                                                  const ScenarioGrid& grid,
                                                  std::size_t n) {
  const core::XrPerformanceModel model;
  std::vector<core::PerformanceReport> reports;
  RecordSink sink(options, id);
  for (std::size_t i = 0; i < n; ++i) {
    reports.push_back(model.evaluate(grid.at(i)));
    sink.append(i, reports.back(), nullptr);
    if ((i + 1) % options.chunk_records == 0) (void)sink.flush();
  }
  (void)sink.flush();
  return reports;
}

TEST_F(RecordStreamTest, BinaryRoundTripIsBitwiseExact) {
  const auto grid = small_spec().build();
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size(), 77};
  const auto reports =
      write_stream(SinkOptions{stem("full"), 4}, id, grid, grid.size());

  RecordSource source(stem("full") + ".xrb");
  ParsedRecord r;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(source.next(r));
    EXPECT_EQ(r.index, i);
    EXPECT_FALSE(r.slim);
    EXPECT_FALSE(r.gt.has_value());
    expect_reports_equal(r.report, reports[i]);
  }
  EXPECT_FALSE(source.next(r));

  // The header is self-identifying.
  const auto header = read_binary_header(stem("full") + ".xrb");
  EXPECT_EQ(header.id.grid_size, grid.size());
  EXPECT_EQ(header.id.grid_fingerprint, 77u);
  EXPECT_FALSE(header.ground_truth);
  EXPECT_FALSE(header.metrics_only);
}

TEST_F(RecordStreamTest, BinaryGroundTruthAndSlimShapesRoundTrip) {
  const auto grid = small_spec().build();
  EvaluatorSpec gt_ev;
  gt_ev.kind = EvaluatorKind::kGroundTruth;
  gt_ev.seed = 7;
  gt_ev.frames_per_point = 3;
  const core::XrPerformanceModel model;
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size(), 5};

  std::vector<EvaluatedPoint> points;
  {
    RecordSink sink(SinkOptions{stem("gt"), 3, /*ground_truth=*/true}, id);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      points.push_back(evaluate_point(gt_ev, model, grid.at(i), i));
      sink.append(i, points.back().report, &*points.back().gt);
    }
    (void)sink.flush();
  }
  {
    RecordSource source(stem("gt") + ".xrb");
    ParsedRecord r;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      ASSERT_TRUE(source.next(r));
      ASSERT_TRUE(r.gt.has_value());
      EXPECT_EQ(r.gt->seed, points[i].gt->seed);
      EXPECT_EQ(r.gt->frames, points[i].gt->frames);
      EXPECT_EQ(r.gt->mean_latency_ms, points[i].gt->mean_latency_ms);
      EXPECT_EQ(r.gt->mean_energy_mj, points[i].gt->mean_energy_mj);
      EXPECT_EQ(r.gt->latency_error_pct, points[i].gt->latency_error_pct);
      EXPECT_EQ(r.gt->energy_error_pct, points[i].gt->energy_error_pct);
      expect_reports_equal(r.report, points[i].report);
    }
    EXPECT_FALSE(source.next(r));
  }

  // Slim (metrics-only) records keep the totals bit-for-bit.
  {
    RecordSink sink(
        SinkOptions{stem("slim"), 3, /*ground_truth=*/false,
                    /*metrics_only=*/true},
        id);
    for (std::size_t i = 0; i < grid.size(); ++i)
      sink.append(i, points[i].report, nullptr);
    (void)sink.flush();
  }
  RecordSource source(stem("slim") + ".xrb");
  ParsedRecord r;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    ASSERT_TRUE(source.next(r));
    EXPECT_TRUE(r.slim);
    EXPECT_EQ(r.report.latency.total, points[i].report.latency.total);
    EXPECT_EQ(r.report.energy.total, points[i].report.energy.total);
  }
}

TEST_F(RecordStreamTest, BinaryWriteReadWriteIsByteIdentical) {
  const auto grid = small_spec().build();
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size(), 9};
  const SinkOptions a{stem("a"), 4};
  (void)write_stream(a, id, grid, grid.size());

  // Decode every record, re-encode on the same chunk grid: identical bytes.
  {
    RecordSource source(stem("a") + ".xrb");
    RecordSink sink(SinkOptions{stem("b"), 4}, id);
    ParsedRecord r;
    std::size_t n = 0;
    while (source.next(r)) {
      sink.append(r.index, r.report, r.gt ? &*r.gt : nullptr);
      if (++n % a.chunk_records == 0) (void)sink.flush();
    }
    (void)sink.flush();
  }
  EXPECT_EQ(read_file(stem("a") + ".xrb"), read_file(stem("b") + ".xrb"));
}

TEST_F(RecordStreamTest, BinaryHeaderRejectsCorruptionAndVersionSkew) {
  const auto grid = small_spec().build();
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size(), 3};
  SinkOptions options;
  options.output_stem = stem("s");
  (void)write_stream(options, id, grid, grid.size());
  const std::string path = stem("s") + ".xrb";
  const std::string intact = read_file(path);

  // Wrong magic.
  std::string bad = intact;
  bad[0] = 'Z';
  write_file(path, bad);
  EXPECT_THROW((void)read_binary_header(path), std::runtime_error);
  EXPECT_THROW((void)RecordSource(path), std::runtime_error);

  // Unsupported version.
  bad = intact;
  bad[8] = char(kBinaryVersion + 1);
  write_file(path, bad);
  try {
    (void)read_binary_header(path);
    FAIL() << "version skew must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }

  // A foreign fingerprint refuses to resume (named error, not truncation).
  write_file(path, intact);
  const ShardPlan plan(grid.size(), 1, ShardStrategy::kRange);
  const ShardIdentity foreign{0, 1, ShardStrategy::kRange, grid.size(), 4};
  EXPECT_THROW((void)StreamingSink::scan_existing(options, foreign, plan),
               std::runtime_error);
  // The matching identity scans the whole stream back.
  const auto recovered = StreamingSink::scan_existing(options, id, plan);
  EXPECT_EQ(recovered.records, grid.size());
  EXPECT_EQ(recovered.valid_bytes, intact.size());
}

TEST_F(RecordStreamTest, ShardsMergeBitwiseIdenticalToMonolithic) {
  const auto grid_spec = testbed::ablation_grid_spec();
  const auto grid = grid_spec.build();
  const auto mono = BatchEvaluator({}, BatchOptions{1}).run(grid);

  for (ShardStrategy strategy :
       {ShardStrategy::kRange, ShardStrategy::kStrided}) {
    constexpr std::size_t kShards = 3;
    std::vector<PartialReduction> partials;
    std::vector<std::string> records;
    for (std::size_t k = 0; k < kShards; ++k) {
      WorkerSpec spec;
      spec.grid = grid_spec;
      spec.shard_id = k;
      spec.shard_count = kShards;
      spec.strategy = strategy;
      spec.chunk_records = 4;
      spec.output = stem(std::string(strategy_name(strategy)) +
                         std::to_string(k));
      const auto outcome = run_worker(spec);
      ASSERT_TRUE(outcome.complete);
      EXPECT_EQ(outcome.records_path, spec.output + ".xrb");
      partials.push_back(outcome.partial);
      records.push_back(outcome.records_path);
    }
    const auto from_partials = merge_partials(partials);
    // Merge the shards straight from their record streams.
    const auto from_records = merge_partial_files(records);
    std::string why;
    EXPECT_TRUE(matches_batch_result(from_records, mono, &why))
        << strategy_name(strategy) << ": " << why;
    EXPECT_TRUE(summaries_equivalent(from_partials, from_records, &why))
        << strategy_name(strategy) << ": " << why;
  }
}

TEST_F(RecordStreamTest, MergeTakesOnlyRecordStreams) {
  const auto grid_spec = testbed::ablation_grid_spec();
  const auto grid = grid_spec.build();
  const auto mono = BatchEvaluator({}, BatchOptions{1}).run(grid);

  WorkerSpec spec;
  spec.grid = grid_spec;
  spec.shard_count = 2;
  spec.chunk_records = 4;
  spec.shard_id = 0;
  spec.output = stem("m0");
  const auto shard0 = run_worker(spec);
  spec.shard_id = 1;
  spec.output = stem("m1");
  const auto shard1 = run_worker(spec);

  const auto merged =
      merge_partial_files({shard0.records_path, shard1.records_path});
  std::string why;
  EXPECT_TRUE(matches_batch_result(merged, mono, &why)) << why;

  // partial_from_records reproduces each worker's own reduction; the
  // stream names its own sweep, and a fold carries no throughput stats.
  for (const auto* outcome : {&shard0, &shard1}) {
    const auto partial = partial_from_records(outcome->records_path);
    EXPECT_EQ(reduction_diff(partial, outcome->partial), "");
    EXPECT_EQ(partial.identity().grid_fingerprint,
              outcome->partial.identity().grid_fingerprint);
    EXPECT_EQ(partial.identity().shard_id,
              outcome->partial.identity().shard_id);
    EXPECT_EQ(partial.wall_ms, 0.0);
  }
  EXPECT_EQ(merged.stats.wall_ms_sum, 0.0);

  // Any other operand is refused by name.
  const std::string other = stem("m0") + ".summary.json";
  write_file(other, merged.to_json().dump());
  try {
    (void)merge_partial_files({shard0.records_path, other});
    FAIL() << "a non-.xrb operand was merged";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(other), std::string::npos)
        << e.what();
  }
}

TEST_F(RecordStreamTest, BinaryResumeAfterKillIsByteIdentical) {
  const auto grid_spec = testbed::ablation_grid_spec();

  WorkerSpec spec;
  spec.grid = grid_spec;
  spec.shard_id = 1;
  spec.shard_count = 2;
  spec.chunk_records = 3;

  spec.output = stem("clean");
  const auto clean = run_worker(spec);
  ASSERT_TRUE(clean.complete);

  spec.output = stem("killed");
  const auto first = run_worker(spec, /*max_new_records=*/4);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.shard_records, 4u);
  // A real kill can also tear the in-flight chunk; simulate that too.
  {
    std::ofstream out(first.records_path, std::ios::binary | std::ios::app);
    out << "XRBC";  // a chunk header cut off mid-write
  }
  spec.resume = true;
  const auto second = run_worker(spec);
  EXPECT_TRUE(second.complete);
  // The early-stop flush left a 3-record chunk plus an undersized
  // 1-record chunk; the chunk-grid rule drops the undersized tail so the
  // resumed run re-flushes on the boundaries an uninterrupted run uses.
  EXPECT_EQ(second.resumed_records, 3u);
  EXPECT_EQ(read_file(second.records_path), read_file(clean.records_path));

  // Resuming a complete shard is a no-op.
  const auto third = run_worker(spec);
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(third.evaluated_records, 0u);
  EXPECT_EQ(read_file(third.records_path), read_file(clean.records_path));
}

TEST_F(RecordStreamTest, MidFileCorruptionIsANamedError) {
  const auto grid = small_spec().build();
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size()};
  const ShardPlan plan(grid.size(), 1, ShardStrategy::kRange);

  // A byte-complete chunk whose checksum no longer matches.
  SinkOptions options;
  options.output_stem = stem("b");
  options.chunk_records = 2;
  (void)write_stream(options, id, grid, grid.size());
  const std::string path = options.output_stem + ".xrb";
  const std::string intact = read_file(path);
  std::string bad = intact;
  bad[kBinaryFileHeaderBytes + kBinaryChunkHeaderBytes + 1] ^= 0x40;
  write_file(path, bad);
  EXPECT_THROW((void)StreamingSink::scan_existing(options, id, plan),
               std::runtime_error);
  EXPECT_THROW((void)fold_binary_partial(path), std::runtime_error);

  // A torn TAIL, by contrast, stays a silent truncation for resume — and
  // a named error for strict readers, who require complete streams.
  write_file(path, intact.substr(0, intact.size() - 5));
  const auto recovered = StreamingSink::scan_existing(options, id, plan);
  EXPECT_LT(recovered.records, grid.size());
  EXPECT_THROW((void)fold_binary_partial(path), std::runtime_error);
}

TEST_F(RecordStreamTest, SinkCountersTrackRecordsAndBytesPerBackend) {
  if (!obs::kEnabled) GTEST_SKIP() << "XR_OBS_DISABLED build";
  const auto grid_spec = small_spec();
  const std::size_t n = grid_spec.build().size();

  const auto counter = [](const char* name) {
    const auto snap = obs::Registry::global().snapshot();
    const auto* v = snap.counter(name);
    return v ? *v : 0u;
  };
  const auto before_rec = counter("shard.sink.binary.records");
  const auto before_bytes = counter("shard.sink.binary.bytes");

  WorkerSpec spec;
  spec.grid = grid_spec;
  spec.output = stem("obs");
  spec.chunk_records = 4;
  const auto outcome = run_worker(spec);
  ASSERT_TRUE(outcome.complete);

  EXPECT_EQ(counter("shard.sink.binary.records") - before_rec, n);
  EXPECT_EQ(counter("shard.sink.binary.bytes") - before_bytes,
            read_file(outcome.records_path).size() - kBinaryFileHeaderBytes);

  const auto snap = obs::Registry::global().snapshot();
  const auto* flushes = snap.histogram("shard.sink.flush_ms");
  ASSERT_NE(flushes, nullptr);
  EXPECT_GT(flushes->count, 0u);
}

TEST_F(RecordStreamTest, CoarseEstimatesReadShardedStreams) {
  const auto grid_spec = small_spec();
  const std::size_t n = grid_spec.build().size();

  // A two-shard GT sweep — the refinement selection input sweep_plan
  // --refine-out consumes.
  WorkerSpec spec;
  spec.grid = grid_spec;
  spec.evaluator.kind = EvaluatorKind::kGroundTruth;
  spec.evaluator.seed = 7;
  spec.evaluator.frames_per_point = 3;
  spec.shard_count = 2;
  spec.chunk_records = 2;
  spec.shard_id = 0;
  spec.output = stem("c0");
  const auto s0 = run_worker(spec);
  spec.shard_id = 1;
  spec.output = stem("c1");
  const auto s1 = run_worker(spec);
  ASSERT_TRUE(s0.complete && s1.complete);

  const auto estimates = coarse_estimates_from_records(
      {s0.records_path, s1.records_path}, n);
  ASSERT_EQ(estimates.size(), n);

  // Same sweep, monolithic: identical estimates (the simulator seed
  // derives from the global index, and the stream is bit-exact).
  spec.shard_id = 0;
  spec.shard_count = 1;
  spec.output = stem("mono");
  const auto mono = run_worker(spec);
  const auto reference =
      coarse_estimates_from_records({mono.records_path}, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(estimates[i].latency_ms, reference[i].latency_ms);
    EXPECT_EQ(estimates[i].energy_mj, reference[i].energy_mj);
  }

  // Coverage gaps are refused.
  EXPECT_THROW((void)coarse_estimates_from_records({s1.records_path}, n),
               std::invalid_argument);
}

/// The what() of the std::runtime_error `read` throws, or "" when it
/// returns normally. Any other exception escapes and fails the test.
template <class Read>
std::string runtime_error_of(Read&& read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Every record of a complete stream, as its dumped line.
std::vector<std::string> dump_lines(const std::string& path) {
  RecordSource source(path);
  std::vector<std::string> lines;
  ParsedRecord r;
  while (source.next(r))
    lines.push_back(
        record_line(r.index, r.report, r.gt ? &*r.gt : nullptr, r.slim));
  return lines;
}

void overwrite_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (std::size_t b = 0; b < 8; ++b)
    bytes[offset + b] = char((v >> (8 * b)) & 0xFF);
}

TEST_F(RecordStreamTest, ChunkHeaderLiesAreNamedErrors) {
  // The chunk header sits outside the checksum. A payload size the file
  // cannot back, or a record count the payload cannot hold, must be a
  // named error before anything is sized from it; a count that disagrees
  // with a byte-complete payload is corruption even for the resume scan.
  const auto grid = small_spec().build();
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size(), 11};
  const ShardPlan plan(grid.size(), 1, ShardStrategy::kRange);
  SinkOptions intact_options{stem("intact"), 4};
  (void)write_stream(intact_options, id, grid, grid.size());
  const std::string intact = read_file(stem("intact") + ".xrb");
  const std::size_t chunk0 = kBinaryFileHeaderBytes;

  struct Lie {
    const char* name;
    std::size_t offset;
    std::uint64_t value;
    bool scan_throws;
  };
  const Lie lies[] = {
      {"payload_bytes", chunk0 + 16, std::uint64_t{1} << 62, false},
      {"huge_count", chunk0 + 8, std::uint64_t{1} << 40, true},
      {"count_plus_one", chunk0 + 8, 5, true},
  };
  for (const Lie& lie : lies) {
    SCOPED_TRACE(lie.name);
    SinkOptions options = intact_options;
    options.output_stem = stem(lie.name);
    const std::string path = options.output_stem + ".xrb";
    std::string bytes = intact;
    overwrite_u64(bytes, lie.offset, lie.value);
    write_file(path, bytes);

    EXPECT_NE(runtime_error_of([&] { (void)dump_lines(path); }).find(path),
              std::string::npos);
    EXPECT_NE(
        runtime_error_of([&] { (void)fold_binary_partial(path); }).find(path),
        std::string::npos);
    if (lie.scan_throws) {
      EXPECT_NE(runtime_error_of([&] {
                  (void)StreamingSink::scan_existing(options, id, plan);
                }).find(path),
                std::string::npos);
    } else {
      // An overlong payload reads as a torn tail: the scan stops at
      // chunk 0 without an error.
      const auto recovered = StreamingSink::scan_existing(options, id, plan);
      EXPECT_EQ(recovered.records, 0u);
      EXPECT_EQ(recovered.valid_bytes, kBinaryFileHeaderBytes);
    }
  }
}

TEST_F(RecordStreamTest, SeededByteMutationsThrowOrReadBackTheOriginal) {
  // Every byte of a 3-chunk stream, in each record shape, overwritten in
  // turn with a seeded different value: strict readers either throw a
  // named error or return exactly the original records, and the resume
  // scan either throws or recovers a prefix of them.
  const auto grid = small_spec().build();
  const std::size_t n = grid.size();  // 9 records: chunks of 4, 4 and 1.
  const ShardPlan plan(n, 1, ShardStrategy::kRange);
  const core::XrPerformanceModel model;
  EvaluatorSpec gt_ev;
  gt_ev.kind = EvaluatorKind::kGroundTruth;
  gt_ev.seed = 5;
  gt_ev.frames_per_point = 3;

  struct Shape {
    const char* name;
    bool ground_truth;
    bool metrics_only;
  };
  for (const Shape shape : {Shape{"full", false, false},
                            Shape{"slim", false, true},
                            Shape{"gt", true, false}}) {
    SCOPED_TRACE(shape.name);
    const SinkOptions options{stem(shape.name), 4, shape.ground_truth,
                              shape.metrics_only};
    const ShardIdentity id{0, 1, ShardStrategy::kRange, n, 21};
    const std::string path = options.output_stem + ".xrb";
    // The original stream and what every reader makes of it.
    std::vector<PartialReduction> prefix_partials;  // of records [0, k)
    {
      RecordSink sink(options, id);
      PartialReduction partial(id, shape.ground_truth);
      prefix_partials.push_back(partial);
      for (std::size_t i = 0; i < n; ++i) {
        const EvaluatedPoint p =
            shape.ground_truth ? evaluate_point(gt_ev, model, grid.at(i), i)
                               : EvaluatedPoint{model.evaluate(grid.at(i)),
                                                std::nullopt};
        sink.append(i, p.report, p.gt ? &*p.gt : nullptr);
        if (p.gt)
          partial.add(i, p.gt->mean_latency_ms, p.gt->mean_energy_mj, &*p.gt);
        else
          partial.add(i, p.report.latency.total, p.report.energy.total);
        prefix_partials.push_back(partial);
        if ((i + 1) % options.chunk_records == 0) (void)sink.flush();
      }
      (void)sink.flush();
    }
    const std::string original = read_file(path);
    const std::vector<std::string> lines = dump_lines(path);
    ASSERT_EQ(lines.size(), n);
    // The fold's identity comes from the header (a reader may pass the
    // identity bytes through); compare the values.

    std::mt19937_64 rng(0x5EED0000u + original.size());
    for (std::size_t at = 0; at < original.size(); ++at) {
      std::string bytes = original;
      bytes[at] = char(bytes[at] ^ char(1 + rng() % 255));
      write_file(path, bytes);
      // Header bytes 24-63 are the identity, which resume and merge check;
      // a reader may pass them through with the original records.
      (void)runtime_error_of(
          [&] { EXPECT_EQ(dump_lines(path), lines) << "byte " << at; });
      (void)runtime_error_of([&] {
        EXPECT_EQ(reduction_diff(fold_binary_partial(path),
                                 prefix_partials[n]),
                  "")
            << "byte " << at;
      });
      (void)runtime_error_of([&] {
        const auto recovered = StreamingSink::scan_existing(options, id, plan);
        ASSERT_LE(recovered.records, n) << "byte " << at;
        EXPECT_EQ(reduction_diff(recovered.partial,
                                 prefix_partials[recovered.records]),
                  "")
            << "byte " << at;
      });
    }
  }
}

}  // namespace
}  // namespace xr::runtime::shard
