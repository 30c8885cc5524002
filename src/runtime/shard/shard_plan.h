// Deterministic partitioning of a ScenarioGrid across processes.
//
// The grid is index-addressable (ScenarioGrid::at), so distributing a sweep
// over N workers is a pure index-space question. ShardPlan answers it two
// ways:
//
//   * kRange   — balanced contiguous ranges: shard k owns
//                [k·q + min(k, r), …) with q = ⌊size/K⌋, r = size mod K.
//                The first r shards get one extra index. This is the default
//                and keeps each worker's record stream (binary_stream.h)
//                a sorted slice of the monolithic enumeration.
//   * kStrided — shard k owns {k, k+K, k+2K, …}. Useful when scenario cost
//                varies systematically along the grid (e.g. the remote end
//                of a placement axis simulating more edges) and contiguous
//                ranges would load-balance badly.
//
// Both strategies enumerate each shard's indices in ascending global order,
// which is what makes the streamed partial reductions mergeable back into
// the exact monolithic result (see streaming_sink.h).
//
// The serializable grid description itself is runtime::GridSpec
// (runtime/sweep.h): one document type shared by every sweep in the repo,
// whether it runs monolithically or sharded.
#pragma once

#include <cstddef>
#include <string>

#include "runtime/sweep.h"

namespace xr::runtime::shard {

enum class ShardStrategy { kRange, kStrided };

[[nodiscard]] const char* strategy_name(ShardStrategy s) noexcept;
/// Inverse of strategy_name; throws std::invalid_argument on unknown names.
[[nodiscard]] ShardStrategy strategy_from_name(const std::string& name);

/// Partition of [0, grid_size) into shard_count shards.
class ShardPlan {
 public:
  /// Throws std::invalid_argument when shard_count == 0. shard_count may
  /// exceed grid_size; the surplus shards are simply empty.
  ShardPlan(std::size_t grid_size, std::size_t shard_count,
            ShardStrategy strategy = ShardStrategy::kRange);

  [[nodiscard]] std::size_t grid_size() const noexcept { return grid_size_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  [[nodiscard]] ShardStrategy strategy() const noexcept { return strategy_; }

  /// Number of grid indices owned by shard k.
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const;
  /// The local-th index of shard k, in ascending global order.
  [[nodiscard]] std::size_t global_index(std::size_t shard,
                                         std::size_t local) const;
  /// Which shard owns a global index.
  [[nodiscard]] std::size_t shard_of(std::size_t global) const;

 private:
  void check_shard(std::size_t shard) const;

  std::size_t grid_size_;
  std::size_t shard_count_;
  ShardStrategy strategy_;
};

}  // namespace xr::runtime::shard
