// The unified sweep API's contract: one serializable SweepRequest runs
// monolithically (run_request) or sharded (run_worker per shard + merge)
// with bitwise-equal summaries; an offload_plan reduction over it merges to
// an OffloadPlan byte-identical to the monolithic plan_offload call; and
// every record carries only the totals the reductions read.
#include "runtime/sweep_request.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/framework.h"
#include "core/optimizer.h"
#include "runtime/offload_search.h"
#include "runtime/batch_evaluator.h"
#include "runtime/shard/binary_stream.h"
#include "runtime/shard/merge.h"
#include "runtime/shard/worker.h"
#include "testbed/experiments.h"

namespace xr::runtime {
namespace {

namespace fs = std::filesystem;
using core::Json;

class SweepRequestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("xr_request_test_" + std::to_string(::getpid()) + "_" +
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

/// A small but multi-knob request over the remote factory base.
SweepRequest demo_request() {
  SweepRequest request;
  request.grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                     .cpu_clocks_ghz({1.0, 2.0})
                     .frame_sizes({300, 500, 700})
                     .codec_bitrates_mbps({2.0, 8.0})
                     .grid_spec();
  request.execution.threads = 1;
  request.execution.chunk_records = 4;
  return request;
}

/// Run a request sharded in-process: K run_worker calls + merge.
shard::MergedSummary run_sharded(const SweepRequest& request,
                                 const std::string& stem_base,
                                 std::size_t shards,
                                 shard::ShardStrategy strategy) {
  std::vector<shard::PartialReduction> partials;
  for (std::size_t k = 0; k < shards; ++k) {
    const auto spec = shard::WorkerSpec::from_request(
        request, k, shards, strategy, stem_base + std::to_string(k));
    partials.push_back(shard::run_worker(spec).partial);
  }
  return shard::merge_partials(partials);
}

TEST_F(SweepRequestTest, JsonRoundTripIsDeterministic) {
  const SweepRequest request = demo_request();
  const std::string text = request.to_json().dump();
  const SweepRequest back = SweepRequest::from_json(Json::parse(text));
  EXPECT_EQ(back.to_json().dump(), text);
  EXPECT_EQ(back.fingerprint(), request.fingerprint());
  EXPECT_EQ(back.execution.chunk_records, 4u);
  EXPECT_EQ(back.reduction.kind, ReductionKind::kSummary);

  // chunk_records 0 means "flush every record": chunks of 1, so the
  // sink's flush cadence and the worker's chunk loop read one value.
  Json zero_chunk = request.execution.to_json();
  zero_chunk.set("chunk_records", std::size_t{0});
  EXPECT_EQ(ExecutionSpec::from_json(zero_chunk).chunk_records, 1u);
}

/// `doc` with member `key` added to the object at `path`: member names,
/// and "[0]" for an array's first element.
Json with_member(const Json& doc, const std::vector<std::string>& path,
                 const std::string& key, std::size_t depth = 0) {
  if (depth == path.size()) {
    Json out = doc;
    out.set(key, 1);
    return out;
  }
  if (path[depth] == "[0]") {
    Json out = Json::array();
    for (const Json& e : doc.as_array())
      out.push_back(out.as_array().empty()
                        ? with_member(e, path, key, depth + 1)
                        : e);
    return out;
  }
  Json out = doc;
  out.set(path[depth], with_member(doc.at(path[depth]), path, key, depth + 1));
  return out;
}

/// What SweepRequest::from_json says about `doc` ("" when it parses).
std::string refusal(const Json& doc) {
  try {
    (void)SweepRequest::from_json(doc);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST_F(SweepRequestTest, RejectsBadDocuments) {
  Json j = demo_request().to_json();
  j.set("schema", "xr.sweep.request.v0");
  EXPECT_THROW((void)SweepRequest::from_json(j), std::invalid_argument);

  Json bad_alpha = demo_request().to_json();
  Json reduction = Json::object();
  reduction.set("kind", "offload_plan");
  reduction.set("alpha", 1.5);
  bad_alpha.set("reduction", std::move(reduction));
  EXPECT_THROW((void)SweepRequest::from_json(bad_alpha),
               std::invalid_argument);

  // GT + offload_plan is detectable from the document alone, so it is
  // refused at parse time — before any worker burns the sweep.
  SweepRequest gt_plan = demo_request();
  gt_plan.reduction.kind = ReductionKind::kOffloadPlan;
  gt_plan.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
  EXPECT_THROW((void)SweepRequest::from_json(gt_plan.to_json()),
               std::invalid_argument);
  EXPECT_THROW((void)core::plan_offload(gt_plan), std::invalid_argument);

  // The record encoding has one value: "binary" parses and is not
  // written back, and the retired text encoding is refused by name.
  Json execution = demo_request().execution.to_json();
  EXPECT_EQ(execution.find("format"), nullptr);
  execution.set("format", "binary");
  EXPECT_EQ(ExecutionSpec::from_json(execution).to_json().dump(),
            demo_request().execution.to_json().dump());
  execution.set("format", "jsonl");
  try {
    (void)ExecutionSpec::from_json(execution);
    ADD_FAILURE() << "a jsonl record format must be refused";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sweep_merge --dump"),
              std::string::npos);
  }

  // A key given twice is refused, not settled by the later one: an
  // analytical evaluator slipped in before the ground-truth one must not
  // turn the sweep into either.
  SweepRequest gt_request = demo_request();
  gt_request.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
  std::string doubled = gt_request.to_json().dump();
  const std::size_t at = doubled.find("\"evaluator\":");
  ASSERT_NE(at, std::string::npos);
  doubled.insert(at, "\"evaluator\":{\"kind\":\"analytical\"},");
  try {
    (void)SweepRequest::from_json(Json::parse(doubled));
    ADD_FAILURE() << "a doubled evaluator parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key 'evaluator'"),
              std::string::npos)
        << e.what();
  }

  // A key that belongs to another kind is refused, naming block, kind and
  // key: an analytical evaluator with a seed, or a summary with an alpha,
  // says something the sweep would silently not do.
  const Json plain = demo_request().to_json();
  for (const char* key : {"seed", "frames_per_point", "pass"}) {
    const std::string why = refusal(with_member(plain, {"evaluator"}, key));
    EXPECT_NE(why.find(std::string("evaluator: field '") + key +
                       "' does not apply to kind 'analytical'"),
              std::string::npos)
        << key << ": '" << why << "'";
  }
  EXPECT_NE(refusal(with_member(plain, {"reduction"}, "alpha"))
                .find("reduction: field 'alpha' does not apply to kind "
                      "'summary'"),
            std::string::npos);

  // Every block refuses a key it does not know, naming block and key: a
  // misspelled "evaluater" must not quietly run the analytical default,
  // nor an "alpah" plan with the default weight.
  SweepRequest every_block = demo_request();
  every_block.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
  every_block.adaptive = AdaptiveSpec{};
  const Json full = every_block.to_json();
  ASSERT_EQ(refusal(full), "");
  struct Stray {
    std::vector<std::string> path;
    const char* key;
    const char* block;
  };
  for (const Stray& stray : {Stray{{}, "evaluater", "sweep request"},
                             Stray{{"grid"}, "axis", "grid"},
                             Stray{{"grid", "base"}, "cpu_hz", "grid.base"},
                             Stray{{"grid", "axes", "[0]"}, "value",
                                   "grid axis"},
                             Stray{{"evaluator"}, "frames", "evaluator"},
                             Stray{{"reduction"}, "alpah", "reduction"},
                             Stray{{"execution"}, "thread", "execution"},
                             Stray{{"execution"}, "metrics", "execution"},
                             Stray{{"adaptive"}, "band", "adaptive"}}) {
    const std::string why = refusal(with_member(full, stray.path, stray.key));
    EXPECT_NE(why.find(std::string(stray.block) + ": unknown field '" +
                       stray.key + "'"),
              std::string::npos)
        << stray.key << ": '" << why << "'";
  }
}

// ---- seeded mutations of the request parser -----------------------------

enum class Mutation { kDelete, kRename, kRetype, kTruncate };

/// Rebuilds a document with one edit at slot `target` of a pre-order walk.
/// The slots are the object members; for kRetype, array elements too.
/// After a walk, `seen` holds the number of slots it passed.
struct Mutator {
  Mutator(Mutation k, std::size_t t, std::mt19937_64& r)
      : kind(k), target(t), rng(r) {}

  Mutation kind;
  std::size_t target;
  std::mt19937_64& rng;
  std::size_t seen = 0;

  /// A value of another JSON type than `v`.
  Json retyped(const Json& v) {
    const Json choices[] = {Json(), Json(true), Json(7), Json("x"),
                            Json::array(), Json::object()};
    for (std::size_t k = rng();; ++k)
      if (choices[k % 6].type() != v.type()) return choices[k % 6];
  }

  /// A one-letter typo of `key` that `object` does not hold.
  std::string renamed(const std::string& key, const Json& object) {
    std::string name = key;
    while (object.find(name) != nullptr)
      name[rng() % name.size()] = char('a' + rng() % 26);
    return name;
  }

  Json operator()(const Json& j) {
    if (j.is_array()) {
      Json out = Json::array();
      for (const Json& e : j.as_array())
        out.push_back(kind == Mutation::kRetype && seen++ == target
                          ? retyped(e)
                          : (*this)(e));
      return out;
    }
    if (!j.is_object()) return j;
    Json out = Json::object();
    for (const auto& [key, value] : j.as_object()) {
      if (seen++ != target) out.set(key, (*this)(value));
      else if (kind == Mutation::kRename) out.set(renamed(key, j), value);
      else if (kind == Mutation::kRetype) out.set(key, retyped(value));
    }
    return out;
  }
};

TEST_F(SweepRequestTest, SeededMutationsThrowOrRoundTrip) {
  // A ground-truth adaptive validation request, and an offload search
  // with its inline base scenario and every execution field set.
  testbed::SweepConfig cfg;
  cfg.frames_per_point = 40;
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 8;
  const SweepRequest gt = testbed::adaptive_validation_request(
      core::InferencePlacement::kRemote, cfg, adaptive);
  SweepRequest search =
      core::offload_search_request(core::make_remote_scenario(500, 2.0));
  ASSERT_TRUE(search.grid.scenario.has_value());
  search.execution.threads = 3;
  search.execution.chunk_records = 16;
  search.execution.grain = 5;

  std::size_t mutants = 0, parsed = 0;
  std::uint64_t seed = 0x5EED0000u;
  for (const SweepRequest& request : {gt, search}) {
    const std::string text = request.to_json().dump();
    const Json doc = Json::parse(text);
    for (const Mutation kind : {Mutation::kDelete, Mutation::kRename,
                                Mutation::kRetype, Mutation::kTruncate}) {
      std::mt19937_64 rng(seed++);
      Mutator census(kind, std::size_t(-1), rng);
      (void)census(doc);
      for (int n = 0; n < 260; ++n, ++mutants) {
        Mutator edit(kind, rng() % census.seen, rng);
        const std::string mutant = kind == Mutation::kTruncate
                                       ? text.substr(0, rng() % text.size())
                                       : edit(doc).dump();
        SCOPED_TRACE(mutant);
        std::string once;
        try {
          once = SweepRequest::from_json(Json::parse(mutant)).to_json().dump();
        } catch (const std::invalid_argument&) {
          continue;
        }
        // A rename leaves a key no block knows, or drops a required one.
        EXPECT_TRUE(kind != Mutation::kRename) << "a renamed key parsed";
        EXPECT_EQ(SweepRequest::from_json(Json::parse(once)).to_json().dump(),
                  once);
        ++parsed;
      }
    }
  }
  EXPECT_GE(mutants, 2000u);
  EXPECT_GT(parsed, 0u);  // some deletions and retypes leave valid requests
}

TEST_F(SweepRequestTest, RunRequestMatchesBatchEvaluatorBitwise) {
  const SweepRequest request = demo_request();
  const auto summary = run_request(request);
  const auto reference = BatchEvaluator({}, BatchOptions{1})
                             .run(request.grid.build());
  std::string why;
  EXPECT_TRUE(shard::matches_batch_result(summary, reference, &why)) << why;
}

TEST_F(SweepRequestTest, MonolithicAndShardedSummariesAreBitwiseEqual) {
  const SweepRequest request = demo_request();
  const auto mono = run_request(request);
  for (const auto strategy :
       {shard::ShardStrategy::kRange, shard::ShardStrategy::kStrided}) {
    const auto sharded = run_sharded(
        request, stem(shard::strategy_name(strategy)), 3, strategy);
    std::string why;
    EXPECT_TRUE(shard::summaries_equivalent(mono, sharded, &why))
        << shard::strategy_name(strategy) << ": " << why;
  }
}

TEST_F(SweepRequestTest, GroundTruthRequestsObeyTheSameMergeLaw) {
  SweepRequest request = demo_request();
  request.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
  request.evaluator.seed = 7;
  request.evaluator.frames_per_point = 3;
  const auto mono = run_request(request);
  ASSERT_TRUE(mono.gt.has_value());
  const auto sharded =
      run_sharded(request, stem("gt"), 3, shard::ShardStrategy::kRange);
  std::string why;
  EXPECT_TRUE(shard::summaries_equivalent(mono, sharded, &why)) << why;
}

TEST_F(SweepRequestTest, OffloadPlanMergesBitwiseAcrossShardsAndResume) {
  const auto base = core::make_remote_scenario(500, 2.0);
  core::OffloadSearchSpace space;
  space.omega_c_grid = {0.25, 0.75};
  space.codec_bitrates_mbps = {2.0, 8.0};
  const auto request = core::offload_search_request(base, space, 0.4);
  EXPECT_EQ(request.reduction.kind, ReductionKind::kOffloadPlan);

  // Monolithic reference: the plan_offload call itself (both overloads
  // agree by construction).
  const auto mono = core::plan_offload(request);
  EXPECT_EQ(core::plan_offload(base, space, 0.4).to_json().dump(),
            mono.to_json().dump());

  // Sharded: 3 workers, shard 1 killed mid-run and resumed, then merged
  // and reduced to the plan.
  std::vector<shard::PartialReduction> partials;
  for (std::size_t k = 0; k < 3; ++k) {
    auto spec = shard::WorkerSpec::from_request(
        request, k, 3, shard::ShardStrategy::kRange,
        stem("plan" + std::to_string(k)));
    spec.chunk_records = 4;
    if (k == 1) {
      const auto first = shard::run_worker(spec, /*max_new_records=*/5);
      ASSERT_FALSE(first.complete);
      spec.resume = true;
    }
    partials.push_back(shard::run_worker(spec).partial);
  }
  const auto merged = shard::merge_partials(partials);
  const auto sharded = core::offload_plan_from_summary(request, merged);
  EXPECT_EQ(sharded.to_json().dump(), mono.to_json().dump());

  // The plan itself round-trips.
  const auto reparsed =
      core::OffloadPlan::from_json(Json::parse(mono.to_json().dump()));
  EXPECT_EQ(reparsed.to_json().dump(), mono.to_json().dump());
}

TEST_F(SweepRequestTest, OffloadPlanGuardsItsInputs) {
  const auto request = core::offload_search_request(
      core::make_remote_scenario(500, 2.0));
  const auto summary = run_request(request);

  // A summary from a different sweep is refused.
  SweepRequest other = request;
  other.evaluator.seed ^= 1;
  other.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
  EXPECT_THROW((void)core::offload_plan_from_summary(other, summary),
               std::invalid_argument);

  // A summary-kind request cannot be reduced to a plan.
  SweepRequest plain = demo_request();
  EXPECT_THROW(
      (void)core::offload_plan_from_summary(plain, run_request(plain)),
      std::invalid_argument);
}

TEST_F(SweepRequestTest, OffloadSearchSpaceRoundTripsAndValidates) {
  core::OffloadSearchSpace space;
  space.include_local = false;
  space.edge_counts = {1, 4};
  const auto back = core::OffloadSearchSpace::from_json(
      Json::parse(space.to_json().dump()));
  EXPECT_EQ(back.to_json().dump(), space.to_json().dump());

  const auto base = core::make_remote_scenario(500, 2.0);
  EXPECT_THROW((void)core::offload_search_request(base, space, -0.1),
               std::invalid_argument);
  core::OffloadSearchSpace empty;
  empty.include_local = empty.include_remote = false;
  EXPECT_THROW((void)core::offload_search_request(base, empty),
               std::invalid_argument);
}

// ---- the record shape ---------------------------------------------------

TEST_F(SweepRequestTest, RecordsCarryOnlyTheTotals) {
  const SweepRequest request = demo_request();
  const auto outcome = shard::run_worker(shard::WorkerSpec::from_request(
      request, 0, 1, shard::ShardStrategy::kRange, stem("totals")));
  ASSERT_TRUE(outcome.complete);

  shard::RecordSource source(outcome.records_path);
  shard::ParsedRecord first;
  ASSERT_TRUE(source.next(first));
  const auto reference =
      core::XrPerformanceModel{}.evaluate(request.grid.build().at(0));
  EXPECT_EQ(first.latency_ms, reference.latency.total);
  EXPECT_EQ(first.energy_mj, reference.energy.total);

  // As `sweep_merge --dump` prints it: exactly {"i", "latency_ms",
  // "energy_mj"}, in that order.
  const Json record = Json::parse(shard::record_line(first));
  const auto& members = record.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "i");
  EXPECT_EQ(members[1].first, "latency_ms");
  EXPECT_EQ(members[2].first, "energy_mj");
}

}  // namespace
}  // namespace xr::runtime
