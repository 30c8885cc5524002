#include "runtime/shard/shard_plan.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace xr::runtime::shard {
namespace {

void expect_exact_cover(const ShardPlan& plan) {
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (std::size_t k = 0; k < plan.shard_count(); ++k) {
    std::size_t previous = 0;
    for (std::size_t j = 0; j < plan.shard_size(k); ++j) {
      const std::size_t g = plan.global_index(k, j);
      ASSERT_LT(g, plan.grid_size());
      EXPECT_TRUE(seen.insert(g).second) << "index " << g << " owned twice";
      EXPECT_EQ(plan.shard_of(g), k);
      if (j > 0) {
        EXPECT_GT(g, previous) << "shard enumeration must ascend";
      }
      previous = g;
      ++total;
    }
  }
  EXPECT_EQ(total, plan.grid_size());
  EXPECT_EQ(seen.size(), plan.grid_size());
}

TEST(ShardPlan, RangeCoversEveryIndexExactlyOnce) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{15},
                        std::size_t{64}, std::size_t{101}})
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}, std::size_t{13}})
      expect_exact_cover(ShardPlan(n, k, ShardStrategy::kRange));
}

TEST(ShardPlan, StridedCoversEveryIndexExactlyOnce) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{15},
                        std::size_t{64}, std::size_t{101}})
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          std::size_t{7}, std::size_t{13}})
      expect_exact_cover(ShardPlan(n, k, ShardStrategy::kStrided));
}

TEST(ShardPlan, RangeShardsAreContiguousAndBalanced) {
  const ShardPlan plan(17, 5, ShardStrategy::kRange);
  std::size_t expected_next = 0;
  std::size_t min_size = plan.grid_size(), max_size = 0;
  for (std::size_t k = 0; k < plan.shard_count(); ++k) {
    const std::size_t size = plan.shard_size(k);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
    for (std::size_t j = 0; j < size; ++j)
      EXPECT_EQ(plan.global_index(k, j), expected_next++);
  }
  EXPECT_EQ(expected_next, plan.grid_size());
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(ShardPlan, MoreShardsThanIndicesLeavesSurplusEmpty) {
  const ShardPlan plan(3, 7, ShardStrategy::kRange);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(plan.shard_size(k), 1u);
  for (std::size_t k = 3; k < 7; ++k) EXPECT_EQ(plan.shard_size(k), 0u);
  expect_exact_cover(plan);
  expect_exact_cover(ShardPlan(3, 7, ShardStrategy::kStrided));
}

TEST(ShardPlan, BoundsAreEnforced) {
  EXPECT_THROW(ShardPlan(10, 0), std::invalid_argument);
  const ShardPlan plan(10, 3);
  EXPECT_THROW((void)plan.shard_size(3), std::out_of_range);
  EXPECT_THROW((void)plan.global_index(0, plan.shard_size(0)),
               std::out_of_range);
  EXPECT_THROW((void)plan.shard_of(10), std::out_of_range);
}

TEST(ShardStrategyNames, RoundTrip) {
  EXPECT_EQ(strategy_from_name(strategy_name(ShardStrategy::kRange)),
            ShardStrategy::kRange);
  EXPECT_EQ(strategy_from_name(strategy_name(ShardStrategy::kStrided)),
            ShardStrategy::kStrided);
  EXPECT_THROW((void)strategy_from_name("diagonal"), std::invalid_argument);
}

}  // namespace
}  // namespace xr::runtime::shard
