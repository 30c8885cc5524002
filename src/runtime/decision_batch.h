// SoA batch kernel for offload-decision grids — the serving hot path.
//
// The scalar path computes every candidate of an offload search by walking
// the full analytical model: per point it re-resolves the CNN zoo entry and
// codec curves (devices/memo.h lookups), re-derives the Eq. (2) resource
// allocation and Eq. (21) power regression, and re-branches on placement.
// But a serializable grid (runtime::GridSpec) varies at most nine knobs,
// and every Eq. (1)/Eq. (19) segment depends on a small, fixed subset of
// them — so across the grid each segment takes only as many distinct
// values as the cross product of ITS axes, not the whole grid's.
//
// DecisionBatchKernel exploits that structure:
//
//   * prepare() hoists each segment into a dense lookup table over exactly
//     the axes that segment reads (its "dependency tuple"), filled by
//     calling the same compiled LatencyModel/PowerModel methods the scalar
//     path calls. All memo-table lookups, string resolutions, validation,
//     and placement branches happen here, once per request. It builds as
//     few scenarios as that allows:
//       - a path-masked entry (a remote-only segment at a local placement,
//         or the reverse) holds a literal 0.0; its path is known from its
//         placement coordinate (the base's when no axis sets it), so it is
//         never built;
//       - only the maximal dependency tuples (those no other segment's
//         tuple contains) are walked, and an entry (its coordinates outside
//         the walk's tuple are 0) is built only by the first walk whose
//         tuple holds its nonzero coordinates; that one scenario, validated
//         once, fills every on-path segment whose tuple holds them, so no
//         scenario is built twice;
//       - scenarios come from a ScenarioGrid::Cursor, which re-applies the
//         grid's appliers only from the first changed axis;
//       - since masked entries are never validated, one scenario per axis
//         value (that value, every other coordinate 0) is validated too,
//         so every grid the scalar path rejects is still rejected (DESIGN.md,
//         "Serving-path architecture", says why that suffices).
//   * run() then evaluates candidates column-wise (structure-of-arrays):
//     the per-candidate loop is a mixed-radix odometer over the axis
//     coordinates, ~11 table loads, and a fixed chain of additions — no
//     strings, no branches on scenario content, no submodel lookups
//     (devices::submodel_lookup_count() is flat across it).
//
// Bitwise identity with the scalar path is the standing gate, not an
// accuracy target. It holds by construction:
//
//   * a segment value is produced by the SAME machine code as the scalar
//     path (out-of-line calls into latency_model.cpp / power.cpp), fed the
//     SAME materialized scenario: grid.at() with non-dependency coordinates
//     pinned at 0 (legal precisely because the segment never reads those
//     knobs), built by the cursor, which runs the same appliers in the same
//     order on an equal copy-assigned prefix and so is bitwise grid.at();
//   * the totals are reduced in the scalar path's exact association:
//     Eq. (1)'s left-to-right segment order for latency, Eq. (19)'s
//     segment_sum + base + thermal for energy. Masked segments contribute
//     the same literal 0.0 the scalar breakdown carries. The loop body
//     performs additions only — base/thermal stay out-of-line PowerModel
//     calls so no FP contraction (fused multiply-add) can re-round what the
//     scalar path computed as separate multiply and add;
//   * PartialReduction only consumes the two totals, and
//     offload_plan_from_summary re-derives the winning reports through the
//     scalar model — so bitwise-equal totals imply bitwise-equal summaries,
//     plans, and reports (asserted by tests/runtime/test_decision_batch.cpp
//     across the shared example scenarios and thread counts).
//
// run_request() routes analytical, non-adaptive requests through this
// kernel (try_run_request_batched below) behind a process-wide toggle —
// the same pattern as devices/memo.h — which makes plan_offload and the
// OffloadPlanIndex miss path serve from it transparently. The index build
// calls the kernel directly: one prepare per context slice, then one
// fold_range per cell (runtime/plan_index.h).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/framework.h"
#include "runtime/batch_evaluator.h"
#include "runtime/sweep_request.h"

namespace xr::runtime {

/// Enable/disable the SoA batch routing of run_request (default enabled),
/// which covers plan_offload and the OffloadPlanIndex miss path; the index
/// build always prepares the kernel. Never changes results — only which
/// code path computes them (the bitwise gate above); exists for A/B
/// benchmarks and the gate tests themselves.
void set_batch_decision_kernel(bool enabled) noexcept;
[[nodiscard]] bool batch_decision_kernel_enabled() noexcept;

class DecisionBatchKernel {
 public:
  /// Index-aligned totals of one grid evaluation (totals[i] ↔ grid.at(i)),
  /// plus throughput stats of the run that produced them.
  struct Totals {
    std::vector<double> latency_ms;
    std::vector<double> energy_mj;
    double wall_ms = 0;
    std::size_t threads = 1;
  };

  /// Hoist the grid into per-segment tables. Returns nullopt when an axis
  /// knob is outside the kernel's dependency map (future knobs fall back
  /// to the scalar path rather than risking a silent mismatch). Throws
  /// what GridSpec::build / core::validate throw on invalid grids.
  [[nodiscard]] static std::optional<DecisionBatchKernel> prepare(
      const GridSpec& spec, const core::XrPerformanceModel& model = {});

  /// Candidate count of the grid.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Total hoisted table entries — the number of model-segment evaluations
  /// prepare() performed; everything past this is table loads and adds.
  [[nodiscard]] std::size_t table_entries() const noexcept;

  /// Evaluate every candidate. Threads follow the BatchOptions convention
  /// (0 shared pool, 1 strict serial, N dedicated); results are identical
  /// for every thread count (disjoint index ranges, no shared state).
  [[nodiscard]] Totals run(const BatchOptions& options = {}) const;

  /// run() folded through the exact single-shard reduction run_request's
  /// scalar path produces — the K = 1 case of the merge law.
  [[nodiscard]] shard::MergedSummary run_summary(
      std::uint64_t fingerprint, const ExecutionSpec& execution) const;

  /// Totals of the candidates first .. first + count - 1, in order.
  using BlockFold =
      std::function<void(std::size_t first, std::size_t count,
                         const double* latency_ms, const double* energy_mj)>;
  /// Candidates per block fold_range hands over.
  static constexpr std::size_t kFoldBlock = 256;

  /// Evaluate the candidates [begin, end) serially, in blocks of at most
  /// kFoldBlock held on the stack, handing each block to `fold` in
  /// ascending order — a contiguous sub-grid's totals without a buffer the
  /// size of the range (a plan-index cell is one search grid's range of
  /// its slice's kernel). Bitwise the totals run() computes; counts as one
  /// run of end - begin decisions. Throws std::out_of_range unless
  /// begin <= end <= size().
  void fold_range(std::size_t begin, std::size_t end,
                  const BlockFold& fold) const;

 private:
  DecisionBatchKernel() = default;

  /// One hoisted segment: a dense (latency, energy) table over the
  /// segment's dependency axes, addressed by sum(coords[axis] * stride).
  struct SegmentTable {
    struct IndexTerm {
      std::size_t axis = 0;
      std::size_t stride = 0;
    };
    std::vector<IndexTerm> terms;
    std::vector<double> latency_ms;
    std::vector<double> energy_mj;
  };

  /// Totals of candidates [begin, end) into out[0 .. end - begin).
  void eval_range(std::size_t begin, std::size_t end, double* latency_out,
                  double* energy_out) const;

  core::XrPerformanceModel model_;
  std::vector<std::size_t> radix_;  ///< per-axis point counts.
  std::size_t size_ = 1;
  std::array<SegmentTable, 11> tables_;  ///< Eq. (1) segment order.
};

/// The run_request fast path: evaluate an analytical, non-adaptive request
/// through the SoA kernel and reduce it to the same MergedSummary the
/// scalar path folds. nullopt when the toggle is off, the request needs
/// per-point simulation (ground truth / adaptive), or the grid uses a knob
/// the kernel does not map — the caller then runs the scalar path.
[[nodiscard]] std::optional<shard::MergedSummary> try_run_request_batched(
    const SweepRequest& request, const core::XrPerformanceModel& model);

}  // namespace xr::runtime
