// OffloadPlanIndex — precomputed offload plans served by scenario lookup.
//
// The serving story's second tier: most requests arriving at a planner are
// near-duplicates (the same device class, a handful of frame sizes, a
// quantized link estimate), so the millions-of-users path is precompute the
// plans over a scenario grid once, then answer each request by LOOKUP —
// O(1) on an exact scenario match, nearest-cell interpolation when the
// query lies close enough to the grid, and only the genuinely novel
// scenarios fall through to a fresh search (which itself runs on the SoA
// kernel, runtime/decision_batch.h).
//
//   spec     — base scenario + numeric context axes (frame_size, cpu_ghz,
//              throughput_mbps, ...) × one OffloadSearchSpace × alpha:
//              everything needed to rebuild the index from scratch.
//   build()  — one plan per grid cell, row-major (axis 0 slowest, the
//              ScenarioGrid order), byte-identical to a plan_offload of
//              the cell: one batch-kernel prepare per slice of the context
//              grid (a value of axis 0 and of every axis on a knob the
//              search grid also sets), then each cell folds its own
//              candidate range of that slice's kernel (DESIGN.md, "Plan
//              index", says why the plans cannot differ).
//   serve()  — exact hit: the stored plan, without consulting the model at
//              all (asserted by a submodel_lookup_count test);
//              nearest hit: the stored plan of the per-axis nearest cell
//              when every axis lies within max_relative_gap;
//              miss: fall through to the batch kernel for a fresh plan.
//
// The whole index is JSON round-trippable through core/serialize's exact
// double form, so indexes ship like any other sweep artifact — build on a
// beefy box, serve anywhere — and the round trip is bitwise (dump ==
// re-dump). from_json applies the same named-field validation build does:
// non-numeric or duplicate or non-finite axis values, a plans array whose
// length disagrees with the scenario grid, and malformed plans
// (OffloadPlan::from_json) are all rejected with the offending field named.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/optimizer.h"
#include "runtime/batch_evaluator.h"
#include "runtime/sweep.h"

namespace xr::runtime {

/// How a serve() call was answered.
enum class PlanSource { kExactHit, kNearestHit, kComputed };
[[nodiscard]] const char* plan_source_name(PlanSource s) noexcept;

/// Everything needed to (re)build an index: the scenario grid the plans
/// cover, the per-cell search, and the serving tolerance.
struct PlanIndexSpec {
  /// Scenario context axes over the base; every axis must be a NUMERIC
  /// knob (nearest-cell distance is undefined for string knobs) with
  /// finite, duplicate-free values — validate() names offenders.
  GridSpec scenarios;
  core::OffloadSearchSpace space;
  /// Weighted-objective latency weight of every precomputed plan.
  double alpha = 0.5;
  /// Per-axis relative gap ceiling for nearest-cell serving: a query q
  /// snaps to its nearest cell when |q - v| / max(|q|, |v|, 1e-9) stays
  /// within this bound on EVERY axis; otherwise serve() recomputes. 0
  /// serves only exact coordinates from the store.
  double max_relative_gap = 0.25;

  void validate() const;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static PlanIndexSpec from_json(const core::Json& j);
};

/// Cumulative serve() outcomes (not serialized; diagnostics only).
struct PlanServeCounters {
  std::uint64_t exact_hits = 0;
  std::uint64_t nearest_hits = 0;
  std::uint64_t computed = 0;
};

class OffloadPlanIndex {
 public:
  static constexpr std::size_t kNoCell = std::size_t(-1);

  /// Precompute one plan per scenario cell, byte-identical to
  /// plan_offload on the cell's search request; always on the batch
  /// kernel. `options` sets the pool the cells' range folds run on (each
  /// fold runs serially, so no plan depends on it).
  [[nodiscard]] static OffloadPlanIndex build(
      PlanIndexSpec spec, const core::XrPerformanceModel& model = {},
      const BatchOptions& options = {});

  [[nodiscard]] const PlanIndexSpec& spec() const noexcept { return spec_; }
  /// Cell count (= scenario grid size = plans().size()).
  [[nodiscard]] std::size_t size() const noexcept { return plans_.size(); }
  [[nodiscard]] const core::OffloadPlan& plan_at(std::size_t cell) const {
    return plans_.at(cell);
  }
  /// Values of scenario axis k, in grid order.
  [[nodiscard]] const std::vector<double>& axis_values(std::size_t k) const {
    return axis_values_.at(k);
  }

  /// The cell whose coordinates equal `key` bitwise on every axis, if any.
  /// `key` holds one value per scenario axis, in declaration order.
  [[nodiscard]] std::optional<std::size_t> exact_cell(
      const std::vector<double>& key) const;

  struct NearestCell {
    std::size_t cell = 0;
    /// max over axes of |q - v| / max(|q|, |v|, 1e-9).
    double worst_gap = 0;
  };
  /// Per-axis nearest snap (ties break to the lower axis index, so the
  /// answer is deterministic for midpoints).
  [[nodiscard]] NearestCell nearest_cell(const std::vector<double>& key) const;

  struct ServeResult {
    core::OffloadPlan plan;
    PlanSource source = PlanSource::kComputed;
    /// Index cell the plan came from; kNoCell when freshly computed.
    std::size_t cell = kNoCell;
  };
  /// Answer one query (see header comment for the three tiers). The model
  /// is consulted ONLY on the computed path.
  [[nodiscard]] ServeResult serve(const std::vector<double>& key,
                                  const core::XrPerformanceModel& model = {});

  [[nodiscard]] const PlanServeCounters& counters() const noexcept {
    return counters_;
  }

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static OffloadPlanIndex from_json(const core::Json& j);

 private:
  OffloadPlanIndex() = default;
  void rebuild_lookup();
  void require_key_arity(const std::vector<double>& key) const;

  PlanIndexSpec spec_;
  std::vector<core::OffloadPlan> plans_;  ///< row-major over the grid.
  std::vector<std::vector<double>> axis_values_;
  /// Bitwise axis-tuple key → cell, for the O(1) exact tier.
  std::unordered_map<std::string, std::size_t> exact_;
  PlanServeCounters counters_;
};

}  // namespace xr::runtime
