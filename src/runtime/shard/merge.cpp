#include "runtime/shard/merge.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/shard/binary_stream.h"

namespace xr::runtime::shard {

namespace {

constexpr const char* kSummarySchema = "xr.sweep.summary.v1";

}  // namespace

std::vector<std::size_t> MergedSummary::pareto_indices() const {
  std::vector<std::size_t> out;
  out.reserve(pareto.size());
  for (const auto& p : pareto) out.push_back(p.index);
  return out;
}

Json MergedSummary::to_json() const {
  Json j = Json::object();
  j.set("schema", kSummarySchema);
  j.set("grid_size", grid_size);
  j.set("shard_count", shard_count);
  j.set("strategy", strategy_name(strategy));
  j.set("evaluated", evaluated);
  j.set("grid_fingerprint", format_hex64(grid_fingerprint));
  j.set("best_latency_index", best_latency_index);
  j.set("min_latency_ms", min_latency_ms);
  j.set("max_latency_ms", max_latency_ms);
  j.set("best_energy_index", best_energy_index);
  j.set("min_energy_mj", min_energy_mj);
  j.set("max_energy_mj", max_energy_mj);
  Json pj = Json::array();
  for (const auto& p : pareto) {
    Json t = Json::array();
    t.push_back(p.index);
    t.push_back(p.latency_ms);
    t.push_back(p.energy_mj);
    pj.push_back(std::move(t));
  }
  j.set("pareto", std::move(pj));
  if (gt) j.set("gt", gt->to_json());
  Json sj = Json::object();
  sj.set("shards", stats.shards);
  sj.set("wall_ms_sum", stats.wall_ms_sum);
  sj.set("wall_ms_max", stats.wall_ms_max);
  j.set("stats", std::move(sj));
  return j;
}

MergedSummary MergedSummary::from_json(const Json& j) {
  if (j.at("schema").as_string() != kSummarySchema)
    throw std::invalid_argument("MergedSummary: unknown schema '" +
                                j.at("schema").as_string() + "'");
  MergedSummary out;
  out.grid_size = j.at("grid_size").as_size();
  out.shard_count = j.at("shard_count").as_size();
  out.strategy = strategy_from_name(j.at("strategy").as_string());
  out.evaluated = j.at("evaluated").as_size();
  out.grid_fingerprint = parse_hex64(j.at("grid_fingerprint").as_string());
  out.best_latency_index = j.at("best_latency_index").as_size();
  out.min_latency_ms = j.at("min_latency_ms").as_double();
  out.max_latency_ms = j.at("max_latency_ms").as_double();
  out.best_energy_index = j.at("best_energy_index").as_size();
  out.min_energy_mj = j.at("min_energy_mj").as_double();
  out.max_energy_mj = j.at("max_energy_mj").as_double();
  for (const Json& t : j.at("pareto").as_array()) {
    const auto& triple = t.as_array();
    if (triple.size() != 3)
      throw std::invalid_argument("MergedSummary: bad pareto entry");
    out.pareto.push_back(ParetoPoint{triple[0].as_size(),
                                     triple[1].as_double(),
                                     triple[2].as_double()});
  }
  if (const Json* g = j.find("gt")) out.gt = GtAggregate::from_json(*g);
  const Json& sj = j.at("stats");
  out.stats.shards = sj.at("shards").as_size();
  out.stats.wall_ms_sum = sj.at("wall_ms_sum").as_double();
  out.stats.wall_ms_max = sj.at("wall_ms_max").as_double();
  return out;
}

MergedSummary merge_partials(const std::vector<PartialReduction>& partials,
                             bool require_complete_cover) {
  static obs::Counter merges("shard.merge.merges");
  static obs::Counter merged_shards("shard.merge.shards");
  merges.add();
  merged_shards.add(partials.size());
  const obs::Span span("merge.partials");
  if (partials.empty())
    throw std::invalid_argument("merge_partials: no partials");

  const ShardIdentity& first = partials.front().identity();
  const bool gt_mode = partials.front().ground_truth();
  const ShardPlan plan(first.grid_size, first.shard_count, first.strategy);
  std::vector<bool> seen(first.shard_count, false);
  std::size_t evaluated = 0;
  for (const auto& p : partials) {
    const ShardIdentity& id = p.identity();
    if (id.grid_size != first.grid_size ||
        id.shard_count != first.shard_count ||
        id.strategy != first.strategy ||
        id.grid_fingerprint != first.grid_fingerprint)
      throw std::invalid_argument(
          "merge_partials: partials disagree on the partition or grid");
    if (p.ground_truth() != gt_mode)
      throw std::invalid_argument(
          "merge_partials: cannot mix analytical and ground-truth partials");
    if (id.shard_id >= id.shard_count)
      throw std::invalid_argument("merge_partials: shard id out of range");
    if (seen[id.shard_id])
      throw std::invalid_argument("merge_partials: duplicate shard " +
                                  std::to_string(id.shard_id));
    seen[id.shard_id] = true;
    if (p.evaluated() != plan.shard_size(id.shard_id))
      throw std::invalid_argument(
          "merge_partials: shard " + std::to_string(id.shard_id) +
          " is incomplete (" + std::to_string(p.evaluated()) + " of " +
          std::to_string(plan.shard_size(id.shard_id)) + " records)");
    evaluated += p.evaluated();
  }
  if (require_complete_cover) {
    if (partials.size() != first.shard_count)
      throw std::invalid_argument("merge_partials: expected " +
                                  std::to_string(first.shard_count) +
                                  " shards, got " +
                                  std::to_string(partials.size()));
    if (evaluated != first.grid_size)
      throw std::invalid_argument("merge_partials: cover is incomplete");
  }
  if (evaluated == 0)
    throw std::invalid_argument("merge_partials: empty grid");

  MergedSummary out;
  out.grid_size = first.grid_size;
  out.shard_count = first.shard_count;
  out.strategy = first.strategy;
  out.evaluated = evaluated;
  out.grid_fingerprint = first.grid_fingerprint;

  // Extrema: global min value, tie broken toward the smallest index. Each
  // shard's argmin is the first occurrence within the shard, so the winner
  // is the global first occurrence — BatchEvaluator's pick.
  bool init = false;
  for (const auto& p : partials) {
    if (p.evaluated() == 0) continue;
    if (!init) {
      init = true;
      out.best_latency_index = p.best_latency_index();
      out.min_latency_ms = p.min_latency_ms();
      out.max_latency_ms = p.max_latency_ms();
      out.best_energy_index = p.best_energy_index();
      out.min_energy_mj = p.min_energy_mj();
      out.max_energy_mj = p.max_energy_mj();
      continue;
    }
    if (p.min_latency_ms() < out.min_latency_ms ||
        (p.min_latency_ms() == out.min_latency_ms &&
         p.best_latency_index() < out.best_latency_index)) {
      out.min_latency_ms = p.min_latency_ms();
      out.best_latency_index = p.best_latency_index();
    }
    out.max_latency_ms = std::max(out.max_latency_ms, p.max_latency_ms());
    if (p.min_energy_mj() < out.min_energy_mj ||
        (p.min_energy_mj() == out.min_energy_mj &&
         p.best_energy_index() < out.best_energy_index)) {
      out.min_energy_mj = p.min_energy_mj();
      out.best_energy_index = p.best_energy_index();
    }
    out.max_energy_mj = std::max(out.max_energy_mj, p.max_energy_mj());
  }

  // Pareto: union of shard frontiers, re-scanned in the order the
  // monolithic stable_sort induces — (latency, energy, index).
  std::vector<ParetoPoint> candidates;
  for (const auto& p : partials) {
    const auto f = p.pareto();
    candidates.insert(candidates.end(), f.begin(), f.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.latency_ms != b.latency_ms)
                return a.latency_ms < b.latency_ms;
              if (a.energy_mj != b.energy_mj)
                return a.energy_mj < b.energy_mj;
              return a.index < b.index;
            });
  double best_energy = std::numeric_limits<double>::infinity();
  for (const auto& c : candidates) {
    if (c.energy_mj < best_energy) {
      out.pareto.push_back(c);
      best_energy = c.energy_mj;
    }
  }

  // Ground-truth aggregates: ExactSum merges are exact, so any grouping of
  // shards produces the same sums — and the same derived means — bitwise.
  if (gt_mode) {
    GtAggregate agg;
    for (const auto& p : partials) agg.merge(*p.gt());
    out.gt = std::move(agg);
  }

  for (const auto& p : partials) {
    ++out.stats.shards;
    out.stats.wall_ms_sum += p.wall_ms;
    out.stats.wall_ms_max = std::max(out.stats.wall_ms_max, p.wall_ms);
  }
  return out;
}

PartialReduction partial_from_records(const std::string& path) {
  if (!is_record_path(path))
    throw std::invalid_argument("partial_from_records: '" + path +
                                "' is not a .xrb record stream");
  return fold_binary_partial(path);
}

MergedSummary merge_partial_files(const std::vector<std::string>& paths) {
  std::vector<PartialReduction> partials;
  partials.reserve(paths.size());
  for (const auto& path : paths) partials.push_back(partial_from_records(path));
  return merge_partials(partials);
}

namespace {

bool fail(std::string* why, const std::string& message) {
  if (why) *why = message;
  return false;
}

}  // namespace

bool summaries_equivalent(const MergedSummary& a, const MergedSummary& b,
                          std::string* why) {
  if (a.grid_size != b.grid_size) return fail(why, "grid_size differs");
  if (a.evaluated != b.evaluated) return fail(why, "evaluated differs");
  if (a.grid_fingerprint != b.grid_fingerprint)
    return fail(why, "grid_fingerprint differs (different grids)");
  if (a.best_latency_index != b.best_latency_index)
    return fail(why, "best_latency_index differs");
  if (a.best_energy_index != b.best_energy_index)
    return fail(why, "best_energy_index differs");
  if (a.min_latency_ms != b.min_latency_ms)
    return fail(why, "min_latency_ms differs");
  if (a.max_latency_ms != b.max_latency_ms)
    return fail(why, "max_latency_ms differs");
  if (a.min_energy_mj != b.min_energy_mj)
    return fail(why, "min_energy_mj differs");
  if (a.max_energy_mj != b.max_energy_mj)
    return fail(why, "max_energy_mj differs");
  if (a.pareto.size() != b.pareto.size())
    return fail(why, "pareto size differs");
  for (std::size_t i = 0; i < a.pareto.size(); ++i)
    if (a.pareto[i].index != b.pareto[i].index ||
        a.pareto[i].latency_ms != b.pareto[i].latency_ms ||
        a.pareto[i].energy_mj != b.pareto[i].energy_mj)
      return fail(why, "pareto[" + std::to_string(i) + "] differs");
  if (a.gt.has_value() != b.gt.has_value())
    return fail(why, "evaluator kind differs (ground-truth vs analytical)");
  if (a.gt) {
    // Exact-value comparison — representation independent, stricter than
    // comparing the rounded means.
    if (a.gt->count != b.gt->count) return fail(why, "gt count differs");
    if (!a.gt->latency_ms_sum.same_value(b.gt->latency_ms_sum))
      return fail(why, "gt latency sum differs");
    if (!a.gt->energy_mj_sum.same_value(b.gt->energy_mj_sum))
      return fail(why, "gt energy sum differs");
    if (!a.gt->latency_error_pct_sum.same_value(b.gt->latency_error_pct_sum))
      return fail(why, "gt latency model-error sum differs");
    if (!a.gt->energy_error_pct_sum.same_value(b.gt->energy_error_pct_sum))
      return fail(why, "gt energy model-error sum differs");
  }
  return true;
}

bool matches_batch_result(const MergedSummary& summary,
                          const BatchResult& result, std::string* why) {
  if (summary.gt)
    return fail(why,
                "ground-truth summary cannot match an analytical "
                "BatchResult");
  if (summary.grid_size != result.reports.size())
    return fail(why, "grid_size differs");
  if (summary.best_latency_index != result.best_latency_index)
    return fail(why, "best_latency_index differs");
  if (summary.best_energy_index != result.best_energy_index)
    return fail(why, "best_energy_index differs");
  if (summary.min_latency_ms != result.min_latency_ms)
    return fail(why, "min_latency_ms differs");
  if (summary.max_latency_ms != result.max_latency_ms)
    return fail(why, "max_latency_ms differs");
  if (summary.min_energy_mj != result.min_energy_mj)
    return fail(why, "min_energy_mj differs");
  if (summary.max_energy_mj != result.max_energy_mj)
    return fail(why, "max_energy_mj differs");
  if (summary.pareto.size() != result.pareto_indices.size())
    return fail(why, "pareto size differs");
  for (std::size_t i = 0; i < summary.pareto.size(); ++i) {
    const std::size_t idx = result.pareto_indices[i];
    if (summary.pareto[i].index != idx ||
        summary.pareto[i].latency_ms != result.latency_ms(idx) ||
        summary.pareto[i].energy_mj != result.energy_mj(idx))
      return fail(why, "pareto[" + std::to_string(i) + "] differs");
  }
  return true;
}

}  // namespace xr::runtime::shard
