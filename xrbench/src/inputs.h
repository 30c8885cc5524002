// Seeded inputs of the three benchmark jobs.
//
// The program under test receives only what these functions generate; the
// benchmark's --seed picks the GT evaluator seed (the validation sweep),
// the query stream (plan serving) and the frame-size context axis (the
// offload search). The same seed always yields the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/optimizer.h"
#include "runtime/plan_index.h"
#include "runtime/sweep_request.h"

namespace xrbench {

/// The named workload runs its own job at full size and the other two jobs
/// at canary size, so every run reports every end-to-end metric.
enum class Size { kFull, kCanary };

// ---- ground-truth validation sweep --------------------------------------

/// The Fig. 4-style validation sweep: placement {local, remote} × CPU clock
/// 1.0–3.0 GHz (step 0.25) × frame size 300–700 (step 25) = 306 points,
/// ground truth at 200 frames per point (canary: 50), evaluator seed =
/// `seed`, on a dedicated 3-thread pool.
[[nodiscard]] xr::runtime::SweepRequest gt_request(std::uint64_t seed,
                                                   Size size);

// ---- plan serving ------------------------------------------------------

/// The serving-sized search space of bench/decision_throughput: 33 ω_c ×
/// 2 local CNNs × 2 edge CNNs × 3 edge counts × 8 bitrates × 2 placements
/// = 6,336 candidates.
[[nodiscard]] xr::core::OffloadSearchSpace serving_space();

/// Index over frame_size 300–700 (step 50) × throughput_mbps 20–200
/// (step 20) × cpu_ghz 1.0–3.0 (step 0.5) = 450 cells (canary: 3 × 3 × 3).
[[nodiscard]] xr::runtime::PlanIndexSpec index_spec(Size size);

/// The tier a query is generated for.
enum class Tier { kExact, kSnap, kComputed };

/// The query mix, exact per block of kMixBlock consecutive queries.
inline constexpr std::size_t kMixBlock = 50;
inline constexpr std::size_t kMixExact = 45;     // 90%: grid points
inline constexpr std::size_t kMixSnap = 4;       // 8%: within the gap
inline constexpr std::size_t kMixComputed = 1;   // 2%: beyond the gap
/// One exact or snap answer in this many is re-checked against plan_at.
inline constexpr std::size_t kSampleOneIn = 64;

/// A generated query stream: flat keys plus what each query must resolve to.
struct QueryStream {
  std::size_t arity = 0;
  std::vector<double> keys;        ///< arity values per query.
  std::vector<Tier> tiers;         ///< intended tier.
  std::vector<std::size_t> cells;  ///< exact/snap: the cell it resolves to.
  std::vector<char> sampled;       ///< exact/snap answers to re-check.

  [[nodiscard]] std::size_t size() const noexcept { return tiers.size(); }
  void key_into(std::size_t q, std::vector<double>& out) const {
    out.assign(keys.begin() + std::ptrdiff_t(q * arity),
               keys.begin() + std::ptrdiff_t((q + 1) * arity));
  }
};

/// `blocks` blocks of the mix, shuffled within each block. Exact queries
/// are grid points; snap queries move one or more coordinates off the grid
/// by less than 0.4 of the local grid spacing and within 0.8 of the spec's
/// max_relative_gap, so they resolve to their source cell; computed
/// queries push frame_size or throughput_mbps beyond the gap past the top
/// of its axis.
[[nodiscard]] QueryStream make_query_stream(
    const xr::runtime::PlanIndexSpec& spec, std::uint64_t seed,
    std::size_t blocks);

// ---- offload search ----------------------------------------------------

/// `count` distinct frame sizes from {300, 305, ..., 700}, ascending.
[[nodiscard]] std::vector<double> context_frame_sizes(std::uint64_t seed,
                                                      std::size_t count);

/// offload_search_request over serving_space() on the remote factory
/// scenario, with a seeded frame_size context axis (8 values, canary: 4)
/// outermost: 50,688 candidates (canary: 25,344). Binary record streams,
/// execution.threads = 1.
[[nodiscard]] xr::runtime::SweepRequest offload_request(std::uint64_t seed,
                                                        Size size);

}  // namespace xrbench
