// The sharded sweep acceptance contract: for random grids and shard counts
// K ∈ {1, 2, 3, 7}, merging K partial reductions reproduces the monolithic
// BatchEvaluator result bitwise (indices, optima, ranges, Pareto set), a
// worker killed between chunks resumes from its record stream alone to
// byte-identical outputs, and a shard stepped in slices through one
// ShardRun writes the bytes one run_worker call writes.
#include "runtime/shard/merge.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/failpoint.h"
#include "core/framework.h"
#include "runtime/shard/worker.h"
#include "testbed/experiments.h"

namespace xr::runtime::shard {
namespace {

namespace fs = std::filesystem;

class ShardedMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xr_shard_test_" + std::to_string(::getpid()) + "_" +
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

/// A randomized-but-seeded grid spec over the paper's knobs.
GridSpec random_spec(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> len(2, 4);
  std::uniform_real_distribution<double> size(250, 750);
  std::uniform_real_distribution<double> clock(0.8, 3.2);
  std::uniform_real_distribution<double> rate(2.0, 12.0);

  GridSpec spec;
  spec.factory = coin(rng) ? "remote" : "local";
  spec.frame_size = 500;
  spec.cpu_ghz = 2.0;

  AxisSpec sizes;
  sizes.knob = "frame_size";
  for (int i = 0, n = len(rng); i < n; ++i)
    sizes.numbers.push_back(size(rng));
  spec.axes.push_back(sizes);

  AxisSpec clocks;
  clocks.knob = "cpu_ghz";
  for (int i = 0, n = len(rng); i < n; ++i)
    clocks.numbers.push_back(clock(rng));
  spec.axes.push_back(clocks);

  if (spec.factory == "remote") {
    AxisSpec bitrates;
    bitrates.knob = "codec_mbps";
    for (int i = 0, n = len(rng); i < n; ++i)
      bitrates.numbers.push_back(rate(rng));
    spec.axes.push_back(bitrates);
  } else {
    AxisSpec omegas;
    omegas.knob = "omega_c";
    omegas.numbers = {0.25, 0.5, 1.0};
    spec.axes.push_back(omegas);
  }
  return spec;
}

/// Build K in-memory partials from a monolithic result and a plan.
std::vector<PartialReduction> partials_of(const BatchResult& result,
                                          const ShardPlan& plan) {
  std::vector<PartialReduction> out;
  for (std::size_t k = 0; k < plan.shard_count(); ++k) {
    PartialReduction partial(ShardIdentity{
        k, plan.shard_count(), plan.strategy(), plan.grid_size()});
    for (std::size_t j = 0; j < plan.shard_size(k); ++j) {
      const std::size_t g = plan.global_index(k, j);
      partial.add(g, result.reports[g].latency.total,
                  result.reports[g].energy.total);
    }
    out.push_back(std::move(partial));
  }
  return out;
}

TEST_F(ShardedMergeTest, MergeLawHoldsForRandomGridsAndShardCounts) {
  const BatchEvaluator engine({}, BatchOptions{1});
  for (std::uint32_t seed : {11u, 23u, 47u}) {
    const auto grid = random_spec(seed).build();
    const auto mono = engine.run(grid);
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}}) {
      for (ShardStrategy strategy :
           {ShardStrategy::kRange, ShardStrategy::kStrided}) {
        const ShardPlan plan(grid.size(), k, strategy);
        const auto merged = merge_partials(partials_of(mono, plan));
        std::string why;
        EXPECT_TRUE(matches_batch_result(merged, mono, &why))
            << "seed " << seed << ", K=" << k << ", "
            << strategy_name(strategy) << ": " << why;
      }
    }
  }
}

TEST_F(ShardedMergeTest, WorkerProcessesAndMergeMatchMonolithicRun) {
  // The full file-based path on the testbed ablation grid: K run_worker
  // passes (the exact code tools/sweep_worker executes) + the merge fold.
  const auto grid_spec = testbed::ablation_grid_spec();
  const auto grid = grid_spec.build();
  const auto mono = BatchEvaluator({}, BatchOptions{1}).run(grid);

  constexpr std::size_t kShards = 3;
  std::vector<std::string> record_paths;
  for (std::size_t k = 0; k < kShards; ++k) {
    WorkerSpec spec;
    spec.grid = grid_spec;
    spec.shard_id = k;
    spec.shard_count = kShards;
    spec.output = stem("shard" + std::to_string(k));
    spec.chunk_records = 2;
    const auto outcome = run_worker(spec);
    EXPECT_TRUE(outcome.complete);
    EXPECT_EQ(outcome.shard_records,
              ShardPlan(grid.size(), kShards).shard_size(k));
    record_paths.push_back(outcome.records_path);
  }

  const auto merged = merge_partial_files(record_paths);
  std::string why;
  EXPECT_TRUE(matches_batch_result(merged, mono, &why)) << why;

  // Summary JSON round-trips to an equivalent summary.
  const auto back =
      MergedSummary::from_json(Json::parse(merged.to_json().dump()));
  EXPECT_TRUE(summaries_equivalent(merged, back, &why)) << why;
}

TEST_F(ShardedMergeTest, ResumeAfterKillIsByteIdentical) {
  const auto grid_spec = testbed::ablation_grid_spec();

  WorkerSpec spec;
  spec.grid = grid_spec;
  spec.shard_id = 1;
  spec.shard_count = 2;
  spec.chunk_records = 3;

  // Reference: uninterrupted run.
  spec.output = stem("clean");
  const auto clean = run_worker(spec);
  ASSERT_TRUE(clean.complete);

  // Killed after 6 records (two whole chunks), then resumed.
  spec.output = stem("killed");
  const auto first = run_worker(spec, /*max_new_records=*/6);
  EXPECT_FALSE(first.complete);
  EXPECT_EQ(first.shard_records, 6u);
  // A real kill can also tear the in-flight chunk; simulate that too.
  {
    std::ofstream out(first.records_path, std::ios::binary | std::ios::app);
    out << "{\"i\":torn";
  }
  spec.resume = true;
  const auto second = run_worker(spec);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.resumed_records, 6u);
  EXPECT_EQ(second.evaluated_records, clean.shard_records - 6u);

  EXPECT_EQ(read_file(second.records_path), read_file(clean.records_path));
  // Partials agree on everything except wall time; compare via merge with
  // the sibling shard.
  WorkerSpec other = spec;
  other.resume = false;
  other.shard_id = 0;
  other.output = stem("other");
  const auto sibling = run_worker(other);
  const auto merged_clean =
      merge_partials({sibling.partial, clean.partial});
  const auto merged_resumed =
      merge_partials({sibling.partial, second.partial});
  std::string why;
  EXPECT_TRUE(summaries_equivalent(merged_clean, merged_resumed, &why))
      << why;

  // Resuming a complete shard is a no-op.
  const auto third = run_worker(spec);
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(third.evaluated_records, 0u);
  EXPECT_EQ(read_file(third.records_path), read_file(clean.records_path));
}

TEST_F(ShardedMergeTest, StreamOnlyStemResumesByteIdentical) {
  // The stem a kill after the first chunk leaves is one file, the record
  // stream; its header names the shard and sweep, and resume needs
  // nothing else.
  WorkerSpec spec;
  spec.grid = testbed::ablation_grid_spec();
  spec.shard_id = 0;
  spec.shard_count = 2;
  spec.chunk_records = 4;
  spec.output = stem("clean");
  const auto clean = run_worker(spec);
  ASSERT_TRUE(clean.complete);
  ASSERT_GT(clean.shard_records, spec.chunk_records);

  fs::create_directories(dir_ / "killed");
  spec.output = (dir_ / "killed" / "shard0").string();
  const auto first = run_worker(spec, spec.chunk_records);
  ASSERT_FALSE(first.complete);
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir_ / "killed"))
    files.push_back(entry.path());
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].string(), first.records_path);

  spec.resume = true;
  const auto resumed = run_worker(spec);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_records, spec.chunk_records);
  EXPECT_EQ(resumed.evaluated_records,
            clean.shard_records - spec.chunk_records);
  EXPECT_EQ(read_file(resumed.records_path), read_file(clean.records_path));
}

TEST_F(ShardedMergeTest, SteppedShardRunMatchesOneRun) {
  WorkerSpec spec;
  spec.grid.factory = "remote";
  spec.grid.frame_size = 500;
  spec.grid.cpu_ghz = 2.0;
  spec.grid.axes = {{"frame_size", {300, 400, 500, 600, 700, 800}, {}},
                    {"cpu_ghz", {1.0, 1.5, 2.0, 3.0}, {}},
                    {"codec_mbps", {2.0, 8.0, 12.0}, {}}};
  spec.shard_id = 0;
  spec.shard_count = 2;
  spec.chunk_records = 3;
  spec.output = stem("sibling");
  const auto sibling = run_worker(spec);
  spec.shard_id = 1;
  spec.output = stem("clean");
  const auto clean = run_worker(spec);
  ASSERT_TRUE(clean.complete);
  ASSERT_GT(clean.shard_records, 7u * spec.chunk_records);
  const auto expect_clean = [&](const WorkerOutcome& out) {
    EXPECT_TRUE(out.complete);
    EXPECT_EQ(read_file(out.records_path), read_file(clean.records_path));
    std::string why;
    EXPECT_TRUE(summaries_equivalent(
        merge_partials({sibling.partial, clean.partial}),
        merge_partials({sibling.partial, out.partial}), &why))
        << why;
  };

  // One open, then slices of whole chunks (and one off the chunk grid,
  // which must reopen through the resume scan), as a serving worker
  // steps a lease.
  for (const std::size_t slice : {std::size_t{3}, std::size_t{6},
                                   std::size_t{21}, std::size_t{4}}) {
    SCOPED_TRACE("slice " + std::to_string(slice));
    spec.output = stem("stepped." + std::to_string(slice));
    ShardRun run(spec);
    WorkerOutcome out;
    std::size_t evaluated = 0, resumed = 0;
    do {
      out = run.step(slice);
      evaluated += out.evaluated_records;
      resumed += out.resumed_records;
    } while (!out.complete && out.evaluated_records > 0);
    if (slice % spec.chunk_records == 0) {
      EXPECT_EQ(evaluated, clean.shard_records);
      EXPECT_EQ(resumed, 0u) << "a chunk-aligned step rescanned its stem";
    }
    expect_clean(out);
  }

  // Kill between slices: the run is dropped after two slices and a new
  // run_worker call resumes the stem.
  spec.output = stem("killed");
  {
    ShardRun run(spec);
    (void)run.step(6);
    EXPECT_EQ(run.step(6).shard_records, 12u);
  }
  spec.resume = true;
  const auto resumed = run_worker(spec);
  EXPECT_EQ(resumed.resumed_records, 12u);
  expect_clean(resumed);
}

TEST_F(ShardedMergeTest, AFailedStepRetiresTheShardRun) {
  if (!fail::kEnabled) GTEST_SKIP() << "fault layer compiled out";
  WorkerSpec spec;
  spec.grid = testbed::ablation_grid_spec();
  spec.chunk_records = 2;
  spec.output = stem("shard0");
  ShardRun run(spec);
  (void)run.step(2);
  // The next chunk flush fails: the step throws, and the run refuses to
  // step on from a reduction its stream no longer matches.
  fail::FaultSchedule schedule;
  fail::FaultRule flush;
  flush.point = "shard.sink.flush";
  flush.trigger.kind = fail::Trigger::Kind::kNth;
  flush.trigger.n = 1;
  flush.action = fail::Action::kIoError;
  schedule.rules = {flush};
  fail::load_schedule(schedule);
  EXPECT_THROW((void)run.step(2), std::runtime_error);
  fail::clear_schedule();
  EXPECT_THROW((void)run.step(2), std::logic_error);
}

/// The message of the std::runtime_error `f` throws ("" when it does not).
template <class F>
std::string runtime_error_of(F&& f) {
  try {
    f();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(ShardedMergeTest, ResumeRefusesADifferentGrid) {
  // Same shape (index sequence indistinguishable), different axis values:
  // only the sweep fingerprint in the stream's header can tell them
  // apart. The refusal comes before the scan truncates anything.
  GridSpec original = testbed::ablation_grid_spec();
  GridSpec edited = original;
  edited.axes[1].numbers[0] += 10.0;

  WorkerSpec spec;
  spec.grid = original;
  spec.shard_id = 0;
  spec.shard_count = 2;
  spec.chunk_records = 2;
  spec.output = stem("shard0");
  const auto first = run_worker(spec, /*max_new_records=*/4);
  ASSERT_FALSE(first.complete);
  const std::string bytes = read_file(first.records_path);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string(), first.records_path);
    ++files;
  }
  ASSERT_EQ(files, 1u) << "the stem holds more than its record stream";

  spec.resume = true;
  spec.grid = edited;
  EXPECT_NE(runtime_error_of([&] { (void)run_worker(spec); })
                .find("different shard identity or sweep fingerprint"),
            std::string::npos);
  EXPECT_EQ(read_file(first.records_path), bytes);
  // Another shard's spec over the same stem is refused the same way.
  spec.grid = original;
  spec.shard_id = 1;
  EXPECT_NE(runtime_error_of([&] { (void)run_worker(spec); })
                .find("different shard identity or sweep fingerprint"),
            std::string::npos);
  EXPECT_EQ(read_file(first.records_path), bytes);

  // The original spec still resumes cleanly.
  spec.shard_id = 0;
  const auto resumed = run_worker(spec);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.resumed_records, 4u);

  // And merging partials from different grids is refused.
  PartialReduction other_grid(ShardIdentity{
      1, 2, ShardStrategy::kRange, original.build().size(),
      grid_fingerprint(edited)});
  const ShardPlan plan(original.build().size(), 2);
  for (std::size_t j = 0; j < plan.shard_size(1); ++j)
    other_grid.add(plan.global_index(1, j), 1.0, 1.0);
  EXPECT_THROW((void)merge_partials({resumed.partial, other_grid}),
               std::invalid_argument);
}

TEST_F(ShardedMergeTest, MergeRejectsBadCovers) {
  const auto grid = testbed::ablation_grid_spec().build();
  const auto mono = BatchEvaluator({}, BatchOptions{1}).run(grid);
  const ShardPlan plan(grid.size(), 3, ShardStrategy::kRange);
  const auto partials = partials_of(mono, plan);

  EXPECT_THROW((void)merge_partials({}), std::invalid_argument);
  // Missing shard.
  EXPECT_THROW((void)merge_partials({partials[0], partials[2]}),
               std::invalid_argument);
  // Duplicate shard.
  EXPECT_THROW(
      (void)merge_partials({partials[0], partials[1], partials[1]}),
      std::invalid_argument);
  // Partition mismatch.
  const ShardPlan other(grid.size(), 2, ShardStrategy::kRange);
  const auto two = partials_of(mono, other);
  EXPECT_THROW((void)merge_partials({partials[0], partials[1], two[0]}),
               std::invalid_argument);
  // Incomplete shard: drop the last record of shard 2.
  PartialReduction incomplete(
      ShardIdentity{2, 3, ShardStrategy::kRange, grid.size()});
  for (std::size_t j = 0; j + 1 < plan.shard_size(2); ++j) {
    const std::size_t g = plan.global_index(2, j);
    incomplete.add(g, mono.reports[g].latency.total,
                   mono.reports[g].energy.total);
  }
  EXPECT_THROW(
      (void)merge_partials({partials[0], partials[1], incomplete}),
      std::invalid_argument);
}

}  // namespace
}  // namespace xr::runtime::shard
