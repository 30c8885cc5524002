#include "runtime/shard/streaming_sink.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/framework.h"
#include "runtime/batch_evaluator.h"

namespace xr::runtime::shard {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
class StreamingSinkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xr_sink_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string stem(const char* name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

ScenarioGrid small_grid() {
  return SweepSpec(core::make_remote_scenario(500, 2.0))
      .cpu_clocks_ghz({1.0, 2.0, 3.0})
      .frame_sizes({300, 500, 700})
      .build();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_F(StreamingSinkTest, RecordRoundTripIsBitwiseExact) {
  const auto grid = small_grid();
  const core::XrPerformanceModel model;
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size()};
  const std::size_t picks[] = {0, grid.size() / 2, grid.size() - 1};
  {
    RecordSink sink(SinkOptions{stem("trip")}, id);
    for (std::size_t i : picks) sink.append(i, model.evaluate(grid.at(i)), nullptr);
    (void)sink.flush();
  }
  RecordSource source(stem("trip") + ".xrb");
  for (std::size_t i : picks) {
    const auto report = model.evaluate(grid.at(i));
    ParsedRecord parsed;
    ASSERT_TRUE(source.next(parsed));
    EXPECT_EQ(parsed.index, i);
    // The dump of the decoded record is the line of the original.
    EXPECT_EQ(record_line(parsed.index, parsed.report), record_line(i, report));
    EXPECT_EQ(parsed.report.latency.total, report.latency.total);
    EXPECT_EQ(parsed.report.latency.buffer_wait, report.latency.buffer_wait);
    EXPECT_EQ(parsed.report.energy.total, report.energy.total);
    EXPECT_EQ(parsed.report.energy.thermal, report.energy.thermal);
    EXPECT_EQ(parsed.report.energy.base, report.energy.base);
    for (core::Segment s : core::all_segments()) {
      EXPECT_EQ(parsed.report.latency.segment(s), report.latency.segment(s));
      EXPECT_EQ(parsed.report.energy.segment(s), report.energy.segment(s));
    }
    ASSERT_EQ(parsed.report.sensors.size(), report.sensors.size());
    for (std::size_t m = 0; m < report.sensors.size(); ++m) {
      EXPECT_EQ(parsed.report.sensors[m].name, report.sensors[m].name);
      EXPECT_EQ(parsed.report.sensors[m].average_aoi_ms,
                report.sensors[m].average_aoi_ms);
      EXPECT_EQ(parsed.report.sensors[m].processed_hz,
                report.sensors[m].processed_hz);
      EXPECT_EQ(parsed.report.sensors[m].roi, report.sensors[m].roi);
      EXPECT_EQ(parsed.report.sensors[m].fresh, report.sensors[m].fresh);
    }
  }
}

TEST_F(StreamingSinkTest, PartialReductionMatchesBatchEvaluatorReductions) {
  const auto grid = small_grid();
  const auto result = BatchEvaluator({}, BatchOptions{1}).run(grid);

  PartialReduction partial(
      ShardIdentity{0, 1, ShardStrategy::kRange, grid.size()});
  for (std::size_t i = 0; i < grid.size(); ++i)
    partial.add(i, result.reports[i].latency.total,
                result.reports[i].energy.total);

  EXPECT_EQ(partial.evaluated(), grid.size());
  EXPECT_EQ(partial.best_latency_index(), result.best_latency_index);
  EXPECT_EQ(partial.best_energy_index(), result.best_energy_index);
  EXPECT_EQ(partial.min_latency_ms(), result.min_latency_ms);
  EXPECT_EQ(partial.max_latency_ms(), result.max_latency_ms);
  EXPECT_EQ(partial.min_energy_mj(), result.min_energy_mj);
  EXPECT_EQ(partial.max_energy_mj(), result.max_energy_mj);

  const auto frontier = partial.pareto();
  ASSERT_EQ(frontier.size(), result.pareto_indices.size());
  for (std::size_t k = 0; k < frontier.size(); ++k) {
    EXPECT_EQ(frontier[k].index, result.pareto_indices[k]);
    EXPECT_EQ(frontier[k].latency_ms,
              result.latency_ms(result.pareto_indices[k]));
    EXPECT_EQ(frontier[k].energy_mj,
              result.energy_mj(result.pareto_indices[k]));
  }
}

TEST_F(StreamingSinkTest, ParetoHandlesTiesLikeTheStableSort) {
  // Duplicate points and latency ties: the frontier must keep the earliest
  // index, exactly as BatchEvaluator's stable_sort + strict-improvement
  // scan does.
  PartialReduction partial(ShardIdentity{0, 1, ShardStrategy::kRange, 6});
  partial.add(0, 5.0, 10.0);
  partial.add(1, 5.0, 10.0);   // exact duplicate: loses to index 0
  partial.add(2, 5.0, 8.0);    // same latency, better energy: replaces 0
  partial.add(3, 4.0, 12.0);   // faster, worse energy: joins
  partial.add(4, 6.0, 8.0);    // dominated by 2 (tie on energy): excluded
  partial.add(5, 6.0, 7.0);    // strictly better energy: joins
  const auto frontier = partial.pareto();
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_EQ(frontier[0].index, 3u);
  EXPECT_EQ(frontier[1].index, 2u);
  EXPECT_EQ(frontier[2].index, 5u);
}

TEST_F(StreamingSinkTest, RejectsOutOfOrderIndices) {
  PartialReduction partial(ShardIdentity{0, 1, ShardStrategy::kRange, 4});
  partial.add(1, 1.0, 1.0);
  EXPECT_THROW(partial.add(1, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(partial.add(0, 1.0, 1.0), std::invalid_argument);
}

TEST_F(StreamingSinkTest, WritesChunkedRecords) {
  const auto grid = small_grid();
  const core::XrPerformanceModel model;
  SinkOptions options;
  options.output_stem = stem("sweep");
  options.chunk_records = 4;
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size()};

  StreamingSink sink(options, id);
  for (std::size_t i = 0; i < grid.size(); ++i)
    sink.append(i, model.evaluate(grid.at(i)));
  const auto partial = sink.finalize();
  EXPECT_EQ(partial.evaluated(), grid.size());

  // Every record decodes back with the right index.
  RecordSource source(sink.records_path());
  ParsedRecord record;
  std::size_t count = 0;
  while (source.next(record)) {
    EXPECT_EQ(record.index, count);
    ++count;
  }
  EXPECT_EQ(count, grid.size());

  // The record stream is the stem's only file.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string(), sink.records_path());
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(StreamingSinkTest, ScanRecoversPrefixAndDropsTornTail) {
  const auto grid = small_grid();
  const core::XrPerformanceModel model;
  SinkOptions options;
  options.output_stem = stem("sweep");
  options.chunk_records = 2;
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size()};
  const ShardPlan plan(grid.size(), 1, ShardStrategy::kRange);

  {
    StreamingSink sink(options, id);
    for (std::size_t i = 0; i < 4; ++i)
      sink.append(i, model.evaluate(grid.at(i)));
    sink.flush();
  }
  const std::string intact = read_file(options.output_stem + ".xrb");

  // Append a torn chunk (a kill mid-write).
  {
    std::ofstream out(options.output_stem + ".xrb",
                      std::ios::binary | std::ios::app);
    out << "XRBCHNK1\x02";
  }
  const auto recovered = StreamingSink::scan_existing(options, id, plan);
  EXPECT_EQ(recovered.records, 4u);
  EXPECT_EQ(recovered.valid_bytes, intact.size());
  EXPECT_EQ(recovered.partial.evaluated(), 4u);

  // Resuming truncates the torn tail before appending.
  {
    StreamingSink sink(options, id, &recovered);
    EXPECT_EQ(sink.records_written(), 4u);
    sink.append(4, model.evaluate(grid.at(4)));
    sink.append(5, model.evaluate(grid.at(5)));
  }
  const auto again = StreamingSink::scan_existing(options, id, plan);
  EXPECT_EQ(again.records, 6u);
}

TEST_F(StreamingSinkTest, ScanStopsAtCorruptOrMisorderedLines) {
  const auto grid = small_grid();
  const core::XrPerformanceModel model;
  SinkOptions options;
  options.output_stem = stem("sweep");
  options.chunk_records = 2;
  const ShardIdentity id{0, 1, ShardStrategy::kRange, grid.size()};
  const ShardPlan plan(grid.size(), 1, ShardStrategy::kRange);

  // Write records 0 and 1, then a chunk carrying indices 7 and 3: the scan
  // must stop after the first two records.
  {
    StreamingSink sink(options, id);
    for (std::size_t i = 0; i < 2; ++i)
      sink.append(i, model.evaluate(grid.at(i)));
  }
  {
    const std::size_t valid = read_file(options.output_stem + ".xrb").size();
    RecordSink sink(options, id, &valid);
    sink.append(7, model.evaluate(grid.at(7)), nullptr);
    sink.append(3, model.evaluate(grid.at(3)), nullptr);
    (void)sink.flush();
  }
  const auto recovered = StreamingSink::scan_existing(options, id, plan);
  EXPECT_EQ(recovered.records, 2u);

  // A missing file is just an empty recovery.
  SinkOptions missing;
  missing.output_stem = stem("nothing");
  missing.chunk_records = 8;
  const auto empty = StreamingSink::scan_existing(missing, id, plan);
  EXPECT_EQ(empty.records, 0u);
  EXPECT_EQ(empty.valid_bytes, 0u);
}

}  // namespace
}  // namespace xr::runtime::shard
