// The adaptive-fidelity contract (runtime/adaptive.h): the selection rule
// is a pure function of the coarse measurements, pass-aware seeds keep
// both legs bitwise independent of shard layout, and the sharded two-pass
// flow (coarse legs -> one refinement set -> hybrid fine legs) merges
// bitwise identical to the monolithic AdaptiveSweep driver — for
// K ∈ {1, 2, 3, 7} × {range, strided}, across thread counts, and through
// a kill/resume mid-fine-leg.
#include "runtime/adaptive.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/shard/merge.h"
#include "runtime/shard/worker.h"
#include "testbed/experiments.h"

namespace xr::runtime {
namespace {

namespace fs = std::filesystem;
using core::Json;

class AdaptiveSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xr_adaptive_test_" + std::to_string(::getpid()) + "_" +
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

/// A small adaptive request over the Fig. 4-shaped remote grid: 2 clocks
/// x 3 sizes, 3 coarse / 10 fine frames — fast, but with a real
/// refinement decision to make.
SweepRequest small_request() {
  testbed::SweepConfig cfg;
  cfg.frame_sizes = {400, 500, 600};
  cfg.cpu_clocks_ghz = {1.0, 3.0};
  cfg.frames_per_point = 10;
  cfg.seed = 42;
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 3;
  adaptive.band_fraction = 0.05;
  auto request = testbed::adaptive_validation_request(
      core::InferencePlacement::kRemote, cfg, adaptive);
  request.execution.threads = 1;
  request.execution.chunk_records = 2;
  return request;
}

/// Run one adaptive request sharded in-process: K coarse legs, the
/// refinement set derived from their record streams (the pure-function
/// path sweep_plan uses), then K hybrid fine legs; returns the merged
/// summary plus (via out-params) the derived set for assertions.
shard::MergedSummary run_sharded_adaptive(
    const SweepRequest& request, const std::string& stem_base,
    std::size_t shards, shard::ShardStrategy strategy,
    std::vector<std::size_t>* refined_out = nullptr) {
  std::vector<std::string> coarse_records;
  for (std::size_t k = 0; k < shards; ++k) {
    auto spec = shard::WorkerSpec::from_request(
        request, k, shards, strategy, stem_base + "c" + std::to_string(k));
    spec.adaptive_pass = 1;
    const auto outcome = shard::run_worker(spec);
    EXPECT_TRUE(outcome.complete);
    coarse_records.push_back(outcome.records_path);
  }

  const std::size_t grid_size = request.grid.build().size();
  const auto estimates =
      coarse_estimates_from_records(coarse_records, grid_size);
  const auto refined =
      select_refinement(request.grid, estimates, *request.adaptive);
  if (refined_out) *refined_out = refined;

  std::vector<shard::PartialReduction> partials;
  for (std::size_t k = 0; k < shards; ++k) {
    auto spec = shard::WorkerSpec::from_request(
        request, k, shards, strategy, stem_base + "f" + std::to_string(k));
    spec.adaptive_pass = 2;
    spec.refine = refined;
    spec.coarse_input = stem_base + "c" + std::to_string(k);
    partials.push_back(shard::run_worker(spec).partial);
  }
  return shard::merge_partials(partials);
}

// ---- request schema ----------------------------------------------------

TEST(AdaptiveSpecJson, RoundTripsAndRejectsBadFidelities) {
  AdaptiveSpec spec;
  spec.coarse_frames = 7;
  spec.fine_frames = 90;
  spec.band_fraction = 0.125;
  const auto back = AdaptiveSpec::from_json(Json::parse(spec.to_json().dump()));
  EXPECT_EQ(back.coarse_frames, 7u);
  EXPECT_EQ(back.fine_frames, 90u);
  EXPECT_EQ(back.band_fraction, 0.125);

  // coarse_frames >= fine_frames is refused at parse time, naming the
  // offending field.
  try {
    (void)AdaptiveSpec::from_json(
        Json::parse(R"({"coarse_frames":200,"fine_frames":200})"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adaptive.coarse_frames"),
              std::string::npos);
  }
  EXPECT_THROW((void)AdaptiveSpec::from_json(Json::parse(
                   R"({"coarse_frames":0,"fine_frames":10})")),
               std::invalid_argument);
  EXPECT_THROW((void)AdaptiveSpec::from_json(Json::parse(
                   R"({"coarse_frames":2,"fine_frames":10,)"
                   R"("band_fraction":-0.5})")),
               std::invalid_argument);
}

TEST(AdaptiveSpecJson, RequestCarriesTheBlockAndGuardsTheEvaluator) {
  const SweepRequest request = small_request();
  const std::string text = request.to_json().dump();
  const SweepRequest back = SweepRequest::from_json(Json::parse(text));
  ASSERT_TRUE(back.adaptive.has_value());
  EXPECT_EQ(back.to_json().dump(), text);
  EXPECT_EQ(back.fingerprint(), request.fingerprint());

  // The adaptive fingerprint differs from both single-fidelity cousins.
  SweepRequest plain = request;
  plain.adaptive.reset();
  EXPECT_NE(plain.fingerprint(), request.fingerprint());

  // Adaptive + analytical evaluator is refused at parse time.
  Json j = request.to_json();
  Json analytical = Json::object();
  analytical.set("kind", "analytical");
  j.set("evaluator", std::move(analytical));
  EXPECT_THROW((void)SweepRequest::from_json(j), std::invalid_argument);
  EXPECT_THROW((void)AdaptiveSweep(plain), std::invalid_argument);
}

TEST(AdaptiveSpecJson, PassAwareSeedsExtendTheLegacyDerivation) {
  // Pass 0 IS the historical derivation — committed streams keep their
  // values.
  EXPECT_EQ(shard::point_seed(42, 7), shard::point_seed(42, 7, 0));
  // The two legs and the legacy sweep draw three distinct seeds per point.
  EXPECT_NE(shard::point_seed(42, 7, 1), shard::point_seed(42, 7, 0));
  EXPECT_NE(shard::point_seed(42, 7, 2), shard::point_seed(42, 7, 0));
  EXPECT_NE(shard::point_seed(42, 7, 1), shard::point_seed(42, 7, 2));
}

// ---- the selection rule ------------------------------------------------

/// A 1-axis grid spec with `n` numeric points (no placement semantics).
GridSpec line_grid(std::size_t n) {
  GridSpec grid;
  grid.factory = "remote";
  AxisSpec axis;
  axis.knob = "frame_size";
  for (std::size_t i = 0; i < n; ++i)
    axis.numbers.push_back(300.0 + 10.0 * double(i));
  grid.axes = {axis};
  return grid;
}

TEST(SelectRefinement, BandIsInclusiveAtTheEdge) {
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 2;
  adaptive.fine_frames = 10;
  adaptive.band_fraction = 0.10;
  // Latencies: 100 (argmin), 110 (exactly on the edge), 110.01 (outside);
  // energies far apart so only latency selects.
  const std::vector<PointEstimate> coarse = {
      {100.0, 50.0}, {110.0, 500.0}, {110.01, 501.0}};
  const auto refined = select_refinement(line_grid(3), coarse, adaptive);
  // Point 0: latency argmin AND energy argmin. Point 1: on the latency
  // edge, inclusive. Point 2: outside both bands.
  EXPECT_EQ(refined, (std::vector<std::size_t>{0, 1}));
}

TEST(SelectRefinement, BandZeroRefinesTheArgminsAlone) {
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 2;
  adaptive.fine_frames = 10;
  adaptive.band_fraction = 0.0;
  const std::vector<PointEstimate> coarse = {
      {100.0, 500.0}, {200.0, 50.0}, {300.0, 400.0}};
  // Latency argmin at 0, energy argmin at 1, point 2 nowhere.
  EXPECT_EQ(select_refinement(line_grid(3), coarse, adaptive),
            (std::vector<std::size_t>{0, 1}));
}

TEST(SelectRefinement, SizeMismatchIsRefused) {
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 2;
  adaptive.fine_frames = 10;
  EXPECT_THROW((void)select_refinement(line_grid(3),
                                       std::vector<PointEstimate>(2),
                                       adaptive),
               std::invalid_argument);
}

/// placement (outer, local/remote) x 4 positions (inner).
GridSpec placement_line_grid() {
  GridSpec grid;
  grid.factory = "remote";
  AxisSpec placement;
  placement.knob = "placement";
  placement.strings = {"local", "remote"};
  AxisSpec sizes;
  sizes.knob = "frame_size";
  sizes.numbers = {300, 400, 500, 600};
  grid.axes = {placement, sizes};
  return grid;
}

TEST(SelectRefinement, PlacementFlipsRefineBothStraddlingCells) {
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 2;
  adaptive.fine_frames = 10;
  adaptive.band_fraction = 0.0;
  // Index layout: local points 0..3, remote points 4..7. The decision is
  // local for cells 0/1 and remote for cells 2/3 — one flip between cells
  // 1 and 2, so cells 1 and 2 refine whole (indices 1, 2, 5, 6). Strictly
  // increasing energies pin the band rule to the two argmins, both at
  // index 0.
  const std::vector<PointEstimate> coarse = {
      {10.0, 100.0}, {20.0, 101.0}, {30.0, 102.0}, {40.0, 103.0},   // local
      {15.0, 104.0}, {25.0, 105.0}, {28.0, 106.0}, {35.0, 107.0}};  // remote
  const auto refined =
      select_refinement(placement_line_grid(), coarse, adaptive);
  // Band 0: latency argmin index 0, energy argmin index 0. Flips: cells
  // 1<->2 disagree (local vs remote) -> 1, 5, 2, 6.
  EXPECT_EQ(refined, (std::vector<std::size_t>{0, 1, 2, 5, 6}));
}

TEST(SelectRefinement, NoFlipsWithoutAPlacementAxisOrDisagreement) {
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 2;
  adaptive.fine_frames = 10;
  adaptive.band_fraction = 0.0;
  // Uniform decision (remote always wins): no cell refines via flips, so
  // only the two argmins remain — energy argmin at 0, latency argmin at 4.
  const std::vector<PointEstimate> coarse = {
      {20.0, 100.0}, {30.0, 101.0}, {40.0, 102.0}, {50.0, 103.0},   // local
      {10.0, 104.0}, {15.0, 105.0}, {18.0, 106.0}, {25.0, 107.0}};  // remote
  EXPECT_EQ(select_refinement(placement_line_grid(), coarse, adaptive),
            (std::vector<std::size_t>{0, 4}));
}

// ---- refinement-set document -------------------------------------------

TEST(RefinementSetJson, RoundTripsAndValidates) {
  RefinementSet set;
  set.fingerprint = 0xDEADBEEFull;
  set.grid_size = 10;
  set.indices = {1, 4, 9};
  const auto back = RefinementSet::from_json(Json::parse(set.to_json().dump()));
  EXPECT_EQ(back.fingerprint, 0xDEADBEEFull);
  EXPECT_EQ(back.grid_size, 10u);
  EXPECT_EQ(back.indices, set.indices);

  Json bad = set.to_json();
  Json idx = Json::array();
  idx.push_back(std::size_t{4});
  idx.push_back(std::size_t{1});
  bad.set("indices", std::move(idx));
  EXPECT_THROW((void)RefinementSet::from_json(bad), std::invalid_argument);
  Json oob = set.to_json();
  Json idx2 = Json::array();
  idx2.push_back(std::size_t{10});
  oob.set("indices", std::move(idx2));
  EXPECT_THROW((void)RefinementSet::from_json(oob), std::invalid_argument);
}

// ---- the determinism / merge-law contract ------------------------------

TEST_F(AdaptiveSweepTest, ShardedTwoPassMatchesMonolithicBitwise) {
  const SweepRequest request = small_request();
  const AdaptiveOutcome mono = run_adaptive(request);
  ASSERT_TRUE(mono.summary.gt.has_value());
  ASSERT_FALSE(mono.refined.empty());

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{3}, std::size_t{7}}) {
    for (const auto strategy :
         {shard::ShardStrategy::kRange, shard::ShardStrategy::kStrided}) {
      std::vector<std::size_t> refined;
      const auto sharded = run_sharded_adaptive(
          request,
          stem(std::string(shard::strategy_name(strategy)) +
               std::to_string(shards)),
          shards, strategy, &refined);
      // The refinement set derived from the sharded coarse streams is the
      // monolithic driver's set — a pure function of the request.
      EXPECT_EQ(refined, mono.refined)
          << shard::strategy_name(strategy) << " K=" << shards;
      std::string why;
      EXPECT_TRUE(shard::summaries_equivalent(mono.summary, sharded, &why))
          << shard::strategy_name(strategy) << " K=" << shards << ": "
          << why;
    }
  }
}

TEST_F(AdaptiveSweepTest, ThreadCountNeverChangesTheSummary) {
  SweepRequest request = small_request();
  const auto serial = run_adaptive(request);
  request.execution.threads = 3;
  request.execution.grain = 1;  // grain is mechanics, not identity
  const auto pooled = run_adaptive(request);
  EXPECT_EQ(pooled.refined, serial.refined);
  std::string why;
  EXPECT_TRUE(
      shard::summaries_equivalent(serial.summary, pooled.summary, &why))
      << why;
}

TEST_F(AdaptiveSweepTest, KilledFineLegResumesByteIdentical) {
  const SweepRequest request = small_request();
  const AdaptiveOutcome mono = run_adaptive(request);

  // Uninterrupted reference fine leg (shard 1 of 3).
  const auto coarse_stem = stem("c");
  auto coarse_spec = shard::WorkerSpec::from_request(
      request, 1, 3, shard::ShardStrategy::kRange, coarse_stem);
  coarse_spec.adaptive_pass = 1;
  ASSERT_TRUE(shard::run_worker(coarse_spec).complete);

  auto fine_spec = shard::WorkerSpec::from_request(
      request, 1, 3, shard::ShardStrategy::kRange, stem("ref"));
  fine_spec.adaptive_pass = 2;
  fine_spec.refine = mono.refined;
  fine_spec.coarse_input = coarse_stem;
  fine_spec.chunk_records = 1;
  const auto reference = shard::run_worker(fine_spec);
  ASSERT_TRUE(reference.complete);

  // Killed-after-one-record + resumed leg.
  fine_spec.output = stem("resumed");
  const auto first = shard::run_worker(fine_spec, /*max_new_records=*/1);
  ASSERT_FALSE(first.complete);
  fine_spec.resume = true;
  const auto resumed = shard::run_worker(fine_spec);
  ASSERT_TRUE(resumed.complete);

  std::ifstream a(reference.records_path, std::ios::binary);
  std::ifstream b(resumed.records_path, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

TEST_F(AdaptiveSweepTest, EmptyRefinementSetCopiesTheCoarseShard) {
  const SweepRequest request = small_request();

  auto coarse_spec = shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("c"));
  coarse_spec.adaptive_pass = 1;
  const auto coarse = shard::run_worker(coarse_spec);
  ASSERT_TRUE(coarse.complete);

  auto fine_spec = shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("f"));
  fine_spec.adaptive_pass = 2;
  fine_spec.refine = {};  // legal: nothing crossed the selection rule
  fine_spec.coarse_input = stem("c");
  const auto fine = shard::run_worker(fine_spec);
  ASSERT_TRUE(fine.complete);

  // Every value is the coarse value (only the stream identity differs).
  EXPECT_EQ(fine.partial.min_latency_ms(), coarse.partial.min_latency_ms());
  EXPECT_EQ(fine.partial.best_latency_index(),
            coarse.partial.best_latency_index());
  EXPECT_TRUE(fine.partial.gt()->same_values(*coarse.partial.gt()));
  EXPECT_NE(fine.partial.identity().grid_fingerprint,
            coarse.partial.identity().grid_fingerprint);
}

TEST_F(AdaptiveSweepTest, FineLegGuardsItsInputs) {
  const SweepRequest request = small_request();

  // Missing coarse stream: the leg has unrefined indices to copy.
  auto fine_spec = shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("f"));
  fine_spec.adaptive_pass = 2;
  fine_spec.refine = {0};
  EXPECT_THROW((void)shard::run_worker(fine_spec), std::invalid_argument);

  // The coarse stream it names must exist, belong to this shard's coarse
  // pass (not one at another fidelity), and be complete; each is refused
  // by name.
  const auto refusal = [&] {
    try {
      (void)shard::run_worker(fine_spec);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  fine_spec.coarse_input = stem("never_run");
  EXPECT_NE(refusal().find("run the coarse pass"), std::string::npos);
  SweepRequest other = request;
  other.adaptive->coarse_frames += 1;
  auto other_coarse = shard::WorkerSpec::from_request(
      other, 0, 1, shard::ShardStrategy::kRange, stem("other"));
  other_coarse.adaptive_pass = 1;
  ASSERT_TRUE(shard::run_worker(other_coarse).complete);
  fine_spec.coarse_input = stem("other");
  EXPECT_NE(refusal().find("does not belong"), std::string::npos);
  auto partial_coarse = shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("partial"));
  partial_coarse.adaptive_pass = 1;
  partial_coarse.chunk_records = 1;
  ASSERT_FALSE(shard::run_worker(partial_coarse, 1).complete);
  fine_spec.coarse_input = stem("partial");
  EXPECT_NE(refusal().find("is incomplete"), std::string::npos);

  // Unsorted refinement sets and a missing leg selection fail loud.
  fine_spec.coarse_input.clear();
  fine_spec.refine = {2, 1};
  EXPECT_THROW((void)shard::run_worker(fine_spec), std::invalid_argument);
  auto no_pass = shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("np"));
  EXPECT_THROW((void)shard::run_worker(no_pass), std::invalid_argument);

  // A coarse leg with a refinement set is a contradiction, not a no-op.
  auto coarse_misuse = shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("cm"));
  coarse_misuse.adaptive_pass = 1;
  coarse_misuse.refine = {0};
  EXPECT_THROW((void)shard::run_worker(coarse_misuse),
               std::invalid_argument);

  // Leg fields on a shard of a request without an adaptive block (say,
  // `sweep_worker --pass fine` on a plain request) are refused — never a
  // silent full single-fidelity sweep in place of the intended leg.
  SweepRequest plain = request;
  plain.adaptive.reset();
  auto stray_leg = shard::WorkerSpec::from_request(
      plain, 0, 1, shard::ShardStrategy::kRange, stem("stray"));
  stray_leg.adaptive_pass = 2;
  EXPECT_THROW((void)shard::run_worker(stray_leg), std::invalid_argument);
}

TEST_F(AdaptiveSweepTest, RunRequestDispatchesToTheAdaptiveDriver) {
  const SweepRequest request = small_request();
  const auto via_run_request = run_request(request);
  const auto via_driver = run_adaptive(request).summary;
  std::string why;
  EXPECT_TRUE(
      shard::summaries_equivalent(via_run_request, via_driver, &why))
      << why;
  // The hybrid summary is NOT the fine-everywhere summary (unrefined
  // points keep coarse values) — the fingerprint seals the difference.
  EXPECT_EQ(via_run_request.grid_fingerprint, request.fingerprint());
}

}  // namespace
}  // namespace xr::runtime
