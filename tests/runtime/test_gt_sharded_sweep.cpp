// The ground-truth sharding contract: per-point simulator seeds derive
// from the *global* grid index, so records — and the exactly-merged GT
// aggregates — are bitwise independent of shard count, strategy, thread
// count, and resume position. Plus the worker/resume regression tests:
// a run's steps accumulate (not clobber) its worker stats, a resume under
// the wrong spec refuses before it truncates anything, and run_worker
// refuses shard_count == 0 by name and runs chunk_records == 0.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/shard/evaluator.h"
#include "runtime/shard/exact_sum.h"
#include "runtime/shard/merge.h"
#include "runtime/shard/worker.h"
#include "testbed/experiments.h"

namespace xr::runtime::shard {
namespace {

namespace fs = std::filesystem;

class GtShardedSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xr_gt_shard_test_" + std::to_string(::getpid()) + "_" +
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

/// A small Fig. 4-shaped grid (2 clocks x 2 sizes) with low GT fidelity so
/// the suite stays fast; the bitwise law is fidelity-independent.
testbed::SweepConfig small_sweep() {
  testbed::SweepConfig cfg;
  cfg.frame_sizes = {400, 600};
  cfg.cpu_clocks_ghz = {1.0, 3.0};
  cfg.frames_per_point = 12;
  cfg.seed = 42;
  return cfg;
}

WorkerSpec gt_spec(const testbed::SweepConfig& cfg, const std::string& out) {
  WorkerSpec spec;
  spec.grid = testbed::validation_grid_spec(
      core::InferencePlacement::kRemote, cfg);
  spec.evaluator = testbed::gt_evaluator_spec(cfg);
  spec.output = out;
  spec.chunk_records = 2;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// All records of one worker output, keyed by global index, as the lines
/// `sweep_merge --dump` prints (every bit of every field).
std::map<std::size_t, std::string> records_of(const std::string& path) {
  std::map<std::size_t, std::string> out;
  RecordSource source(path);
  ParsedRecord r;
  while (source.next(r))
    out[r.index] =
        record_line(r.index, r.report, r.gt ? &*r.gt : nullptr, r.slim);
  return out;
}

TEST(GtEvaluator, SpecJsonRoundTripsAndValidates) {
  EvaluatorSpec gt;
  gt.kind = EvaluatorKind::kGroundTruth;
  gt.seed = 1234567890123ull;
  gt.frames_per_point = 17;
  const auto back = EvaluatorSpec::from_json(Json::parse(gt.to_json().dump()));
  EXPECT_EQ(back.kind, EvaluatorKind::kGroundTruth);
  EXPECT_EQ(back.seed, 1234567890123ull);
  EXPECT_EQ(back.frames_per_point, 17u);

  const EvaluatorSpec analytical;
  const auto a =
      EvaluatorSpec::from_json(Json::parse(analytical.to_json().dump()));
  EXPECT_EQ(a.kind, EvaluatorKind::kAnalytical);

  // Unknown kinds and zero-frame GT specs fail loud.
  EXPECT_THROW((void)EvaluatorSpec::from_json(
                   Json::parse(R"({"kind":"testbed"})")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)EvaluatorSpec::from_json(Json::parse(
          R"({"kind":"ground_truth","frames_per_point":0})")),
      std::invalid_argument);
}

TEST(GtEvaluator, PointSeedDependsOnlyOnSweepSeedAndGlobalIndex) {
  EXPECT_EQ(point_seed(42, 7), point_seed(42, 7));
  EXPECT_NE(point_seed(42, 7), point_seed(42, 8));
  EXPECT_NE(point_seed(42, 7), point_seed(43, 7));
  EXPECT_NE(point_seed(42, 0), 42u);  // index 0 is scrambled too
}

TEST(GtEvaluator, EvaluatorAndFingerprintSeparateSweeps) {
  const auto cfg = small_sweep();
  const auto grid = testbed::validation_grid_spec(
      core::InferencePlacement::kRemote, cfg);
  const auto gt = testbed::gt_evaluator_spec(cfg);
  EvaluatorSpec analytical;
  // Same grid, different evaluator (or different GT fidelity/seed) must
  // fingerprint differently — that is what stops resume/merge mixing them.
  EXPECT_NE(grid_fingerprint(grid, analytical), grid_fingerprint(grid, gt));
  auto coarse = gt;
  coarse.frames_per_point += 1;
  EXPECT_NE(grid_fingerprint(grid, gt), grid_fingerprint(grid, coarse));
  auto reseeded = gt;
  reseeded.seed += 1;
  EXPECT_NE(grid_fingerprint(grid, gt), grid_fingerprint(grid, reseeded));
}

TEST(ExactSumTest, ExactAndOrderInvariant) {
  // 1e100 + 1 - 1e100 loses the 1 in plain double arithmetic.
  ExactSum s;
  s.add(1e100);
  s.add(1.0);
  s.add(-1e100);
  EXPECT_EQ(s.value(), 1.0);

  // Any grouping of the same addends has the same exact value and the
  // same correctly-rounded estimate.
  const std::vector<double> values = {0.1, 0.2, 0.3, 1e16, -1e16, 7e-17};
  ExactSum left, right_a, right_b;
  for (double v : values) left.add(v);
  right_a.add(values[0]);
  right_a.add(values[3]);
  right_a.add(values[5]);
  right_b.add(values[1]);
  right_b.add(values[2]);
  right_b.add(values[4]);
  ExactSum merged = right_a;
  merged.merge(right_b);
  EXPECT_TRUE(left.same_value(merged));
  EXPECT_EQ(left.value(), merged.value());

  // Canonical serialization round-trips the exact value.
  const auto back = ExactSum::from_json(Json::parse(left.to_json().dump()));
  EXPECT_TRUE(back.same_value(left));
  EXPECT_EQ(back.to_json().dump(), merged.to_json().dump());

  ExactSum differs = left;
  differs.add(1e-30);
  EXPECT_FALSE(differs.same_value(left));
}

TEST(GtEvaluator, ReductionRejectsKindMismatch) {
  PartialReduction analytical(ShardIdentity{}, /*ground_truth=*/false);
  PartialReduction ground_truth(ShardIdentity{}, /*ground_truth=*/true);
  GtMeasurement m;
  m.mean_latency_ms = 1.0;
  m.mean_energy_mj = 1.0;
  EXPECT_THROW(analytical.add(0, 1.0, 1.0, &m), std::invalid_argument);
  EXPECT_THROW(ground_truth.add(0, 1.0, 1.0, nullptr), std::invalid_argument);
  ground_truth.add(0, m.mean_latency_ms, m.mean_energy_mj, &m);
  EXPECT_EQ(ground_truth.gt()->count, 1u);
}

TEST_F(GtShardedSweepTest, RecordsBitwiseIndependentOfPartitioning) {
  const auto cfg = small_sweep();

  // Reference: one monolithic worker.
  auto mono = gt_spec(cfg, stem("mono"));
  const auto mono_out = run_worker(mono);
  ASSERT_TRUE(mono_out.complete);
  const auto reference = records_of(mono_out.records_path);
  ASSERT_EQ(reference.size(), 4u);
  for (const auto& [index, line] : reference)
    EXPECT_NE(line.find("\"gt\":"), std::string::npos) << index;

  // Every partitioning/threading/resume variant must reproduce each record
  // byte for byte.
  struct Variant {
    const char* name;
    std::size_t shards;
    ShardStrategy strategy;
    std::size_t threads;
    bool kill_resume;
  };
  const Variant variants[] = {
      {"range3", 3, ShardStrategy::kRange, 1, false},
      {"strided3", 3, ShardStrategy::kStrided, 1, false},
      {"threads2", 2, ShardStrategy::kRange, 2, false},
      {"resume", 2, ShardStrategy::kStrided, 1, true},
  };
  for (const auto& v : variants) {
    std::map<std::size_t, std::string> seen;
    for (std::size_t k = 0; k < v.shards; ++k) {
      auto spec = gt_spec(cfg, stem(std::string(v.name) + std::to_string(k)));
      spec.shard_id = k;
      spec.shard_count = v.shards;
      spec.strategy = v.strategy;
      spec.threads = v.threads;
      if (v.kill_resume) {
        const auto first = run_worker(spec, /*max_new_records=*/1);
        EXPECT_FALSE(first.complete) << v.name;
        spec.resume = true;
      }
      const auto outcome = run_worker(spec);
      EXPECT_TRUE(outcome.complete) << v.name;
      for (auto& [index, line] : records_of(outcome.records_path)) {
        EXPECT_TRUE(seen.emplace(index, line).second) << v.name;
      }
    }
    EXPECT_EQ(seen, reference) << v.name;
  }
}

TEST_F(GtShardedSweepTest, MergeLawHoldsAcrossShardCountsAndStrategies) {
  const auto cfg = small_sweep();
  auto mono = gt_spec(cfg, stem("mono"));
  const auto mono_summary = merge_partials({run_worker(mono).partial});
  ASSERT_TRUE(mono_summary.gt.has_value());
  EXPECT_EQ(mono_summary.gt->count, 4u);
  EXPECT_GT(mono_summary.gt->mean_latency_ms(), 0.0);
  EXPECT_GT(mono_summary.gt->mean_energy_mj(), 0.0);
  // The model tracks the simulated testbed within the paper's regime.
  EXPECT_LT(mono_summary.gt->mean_latency_error_pct(), 15.0);
  EXPECT_GT(mono_summary.gt->mean_latency_error_pct(), 0.0);

  // K = 7 > grid_size exercises empty shards (shard_id >= grid_size) in
  // both strategies: they must produce complete zero-record outputs that
  // merge cleanly.
  for (std::size_t shards : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    for (ShardStrategy strategy :
         {ShardStrategy::kRange, ShardStrategy::kStrided}) {
      std::vector<PartialReduction> partials;
      for (std::size_t k = 0; k < shards; ++k) {
        auto spec = gt_spec(cfg, stem(std::string(strategy_name(strategy)) +
                                      std::to_string(shards) + "_" +
                                      std::to_string(k)));
        spec.shard_id = k;
        spec.shard_count = shards;
        spec.strategy = strategy;
        const auto outcome = run_worker(spec);
        EXPECT_TRUE(outcome.complete);
        if (k >= 4) {  // grid has 4 points: these shards must be empty
          EXPECT_EQ(outcome.shard_records, 0u);
          EXPECT_TRUE(outcome.partial.ground_truth());
          EXPECT_EQ(outcome.partial.gt()->count, 0u);
        }
        partials.push_back(outcome.partial);
      }
      const auto merged = merge_partials(partials);
      std::string why;
      EXPECT_TRUE(summaries_equivalent(merged, mono_summary, &why))
          << shards << " " << strategy_name(strategy) << ": " << why;
      // The serialized GT means are bitwise identical too (canonical
      // ExactSum serialization + correctly-rounded value()).
      EXPECT_EQ(merged.gt->to_json().dump(), mono_summary.gt->to_json().dump())
          << shards << " " << strategy_name(strategy);
    }
  }

  // A ground-truth summary never silently matches an analytical one.
  auto analytical = gt_spec(cfg, stem("analytical"));
  analytical.evaluator = EvaluatorSpec{};
  const auto analytical_summary =
      merge_partials({run_worker(analytical).partial});
  std::string why;
  EXPECT_FALSE(summaries_equivalent(mono_summary, analytical_summary, &why));
  // And partials of different evaluators refuse to merge (fingerprints
  // differ even though grid and partition agree).
  auto half_gt = gt_spec(cfg, stem("half_gt"));
  half_gt.shard_count = 2;
  auto half_an = gt_spec(cfg, stem("half_an"));
  half_an.shard_count = 2;
  half_an.shard_id = 1;
  half_an.evaluator = EvaluatorSpec{};
  EXPECT_THROW((void)merge_partials({run_worker(half_gt).partial,
                                     run_worker(half_an).partial}),
               std::invalid_argument);
}

TEST_F(GtShardedSweepTest, GtResumeAfterKillIsByteIdentical) {
  const auto cfg = small_sweep();
  auto spec = gt_spec(cfg, stem("clean"));
  const auto clean = run_worker(spec);
  ASSERT_TRUE(clean.complete);

  spec.output = stem("killed");
  const auto first = run_worker(spec, /*max_new_records=*/2);
  EXPECT_FALSE(first.complete);
  // Tear the in-flight chunk like a real kill would.
  {
    std::ofstream out(first.records_path, std::ios::binary | std::ios::app);
    out << "{\"i\":torn";
  }
  spec.resume = true;
  const auto second = run_worker(spec);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(second.resumed_records, 2u);

  std::ifstream a(clean.records_path, std::ios::binary);
  std::ifstream b(second.records_path, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());

  std::string why;
  const auto merged_clean = merge_partials({clean.partial});
  const auto merged_resumed = merge_partials({second.partial});
  EXPECT_TRUE(summaries_equivalent(merged_clean, merged_resumed, &why)) << why;
}

TEST_F(GtShardedSweepTest, ResumeUnderWrongEvaluatorRefusesAndPreservesData) {
  // Regression: a resume under a mismatched spec makes every record look
  // invalid to the scan, which once truncated the entire prior stream to
  // zero bytes. The stream's header names its shard and sweep, and the
  // scan refuses a mismatch before it truncates anything.
  const auto cfg = small_sweep();
  auto spec = gt_spec(cfg, stem("precious"));
  const auto done = run_worker(spec);
  ASSERT_TRUE(done.complete);
  const auto before = records_of(done.records_path);
  ASSERT_EQ(before.size(), 4u);
  const std::string bytes = read_file(done.records_path);
  // No file but the stream could vouch for it.
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    EXPECT_EQ(entry.path().string(), done.records_path);
    ++files;
  }
  ASSERT_EQ(files, 1u);

  spec.resume = true;
  spec.evaluator = EvaluatorSpec{};  // forgot --evaluator ground_truth
  EXPECT_THROW((void)run_worker(spec), std::runtime_error);
  // The expensive stream survives untouched.
  EXPECT_EQ(read_file(done.records_path), bytes);
  // So does it under another shard's spec.
  spec.evaluator = testbed::gt_evaluator_spec(cfg);
  spec.shard_count = 2;
  spec.shard_id = 1;
  EXPECT_THROW((void)run_worker(spec), std::runtime_error);
  EXPECT_EQ(read_file(done.records_path), bytes);

  // And with the right spec the resume is still a clean no-op.
  spec.shard_count = 1;
  spec.shard_id = 0;
  const auto resumed = run_worker(spec);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.evaluated_records, 0u);
  EXPECT_EQ(records_of(resumed.records_path), before);
}

TEST_F(GtShardedSweepTest, ResumeAccumulatesWorkerStatsInsteadOfClobbering) {
  // Regression (worker.cpp): set_stats ran unconditionally with one
  // step's wall time, so a step that evaluated zero new records reported
  // ~0 ms and wiped the recorded thread count. A run's stats now
  // accumulate over its steps, across a mid-chunk reopen too.
  const auto cfg = small_sweep();
  auto spec = gt_spec(cfg, stem("stats"));
  spec.threads = 2;
  ShardRun run(spec);

  const auto first = run.step(/*max_new_records=*/1);  // off the chunk grid
  ASSERT_FALSE(first.complete);
  const double wall_first = first.partial.wall_ms;
  EXPECT_GT(wall_first, 0.0);
  EXPECT_EQ(first.partial.threads, 2u);

  const auto second = run.step();
  ASSERT_TRUE(second.complete);
  EXPECT_GT(second.evaluated_records, 0u);
  EXPECT_GE(second.partial.wall_ms, wall_first);
  const double wall_complete = second.partial.wall_ms;

  // A step with nothing left to evaluate must preserve, not clobber.
  const auto third = run.step();
  EXPECT_TRUE(third.complete);
  EXPECT_EQ(third.evaluated_records, 0u);
  EXPECT_GE(third.partial.wall_ms, wall_complete);
  EXPECT_EQ(third.partial.threads, 2u);
}

TEST_F(GtShardedSweepTest, RunWorkerRefusesZeroShardsAndRunsZeroChunks) {
  // Regression (worker.cpp): chunk_records == 0 was clamped in the worker
  // loop but passed raw into SinkOptions; shard_count == 0 surfaced as a
  // confusing downstream error. run_worker rejects shard_count == 0 by
  // name instead of as a misleading shard_id range failure.
  auto spec = gt_spec(small_sweep(), stem("spec"));
  spec.shard_count = 0;
  try {
    (void)run_worker(spec);
    FAIL() << "run_worker must reject shard_count == 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shard_count"), std::string::npos);
  }

  // A chunk_records == 0 spec runs fine end to end (flush every record).
  auto chunky = gt_spec(small_sweep(), stem("chunky"));
  chunky.chunk_records = 0;
  const auto outcome = run_worker(chunky);
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.shard_records, 4u);
}

TEST_F(GtShardedSweepTest, EmptyGridsAndEmptyShardsFailOrMergeLoudly) {
  // grid_size == 0 cannot be expressed by a GridSpec (axes reject empty
  // value lists), but the merge layer can still meet zero-size partials —
  // e.g. hand-written documents. The cover is rejected loudly.
  const ShardPlan empty_plan(0, 3);
  EXPECT_EQ(empty_plan.shard_size(0), 0u);
  EXPECT_EQ(empty_plan.shard_size(2), 0u);
  std::vector<PartialReduction> partials;
  for (std::size_t k = 0; k < 3; ++k)
    partials.emplace_back(ShardIdentity{k, 3, ShardStrategy::kRange, 0, 0});
  EXPECT_THROW((void)merge_partials(partials), std::invalid_argument);

  // An axis with no values — the only road to an empty grid — fails at
  // build time, not as a zero-record sweep.
  GridSpec degenerate = testbed::validation_grid_spec(
      core::InferencePlacement::kRemote, small_sweep());
  degenerate.axes[0].numbers.clear();
  auto spec = gt_spec(small_sweep(), stem("degenerate"));
  spec.grid = degenerate;
  EXPECT_THROW((void)run_worker(spec), std::invalid_argument);
}

}  // namespace
}  // namespace xr::runtime::shard
