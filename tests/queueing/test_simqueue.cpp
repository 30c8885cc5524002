#include "queueing/simqueue.h"

#include <gtest/gtest.h>

#include "queueing/mm1.h"

namespace xr::queueing {
namespace {

TEST(SimulateFifo, HandComputedSchedule) {
  // Jobs arrive at t = 1, 2, 3 with service times 2, 2, 2.
  const auto r = simulate_fifo({1, 1, 1}, {2, 2, 2});
  ASSERT_EQ(r.jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(r.jobs[0].service_start, 1);
  EXPECT_DOUBLE_EQ(r.jobs[0].departure_time, 3);
  EXPECT_DOUBLE_EQ(r.jobs[1].service_start, 3);  // waits for job 0
  EXPECT_DOUBLE_EQ(r.jobs[1].departure_time, 5);
  EXPECT_DOUBLE_EQ(r.jobs[2].waiting_time(), 2);
  EXPECT_DOUBLE_EQ(r.mean_wait, (0 + 1 + 2) / 3.0);
}

TEST(SimulateFifo, NoWaitWhenSpacedOut) {
  const auto r = simulate_fifo({10, 10}, {1, 1});
  EXPECT_DOUBLE_EQ(r.mean_wait, 0);
  EXPECT_DOUBLE_EQ(r.mean_sojourn, 1);
}

TEST(SimulateFifo, InputValidation) {
  EXPECT_THROW((void)simulate_fifo({1}, {1, 2}), std::invalid_argument);
  EXPECT_THROW((void)simulate_fifo({}, {}), std::invalid_argument);
  EXPECT_THROW((void)simulate_fifo({-1}, {1}), std::invalid_argument);
  EXPECT_THROW((void)simulate_fifo({1}, {-1}), std::invalid_argument);
}

TEST(SimulateMm1, MatchesTheoryWithinTolerance) {
  math::Rng rng(77);
  const double lambda = 0.2, mu = 0.35;
  const auto r = simulate_mm1(lambda, mu, 200000, rng);
  const MM1 theory(lambda, mu);
  EXPECT_NEAR(r.mean_sojourn, theory.mean_time_in_system(),
              0.05 * theory.mean_time_in_system());
  EXPECT_NEAR(r.mean_wait, theory.mean_waiting_time(),
              0.07 * theory.mean_waiting_time());
}

TEST(SimulateMm1, EmpiricalAoiMatchesClosedForm) {
  math::Rng rng(78);
  const double lambda = 0.5, mu = 1.0;
  const auto r = simulate_mm1(lambda, mu, 300000, rng);
  const MM1 theory(lambda, mu);
  EXPECT_NEAR(r.mean_aoi, theory.average_aoi(),
              0.05 * theory.average_aoi());
}

TEST(SimulateMm1, ZeroJobsThrows) {
  math::Rng rng(80);
  EXPECT_THROW((void)simulate_mm1(1, 2, 0, rng), std::invalid_argument);
}

TEST(SimulateMm1, HigherLoadMeansLongerWaits) {
  math::Rng rng(81);
  const auto light = simulate_mm1(0.1, 1.0, 50000, rng);
  const auto heavy = simulate_mm1(0.8, 1.0, 50000, rng);
  EXPECT_GT(heavy.mean_wait, light.mean_wait);
}

}  // namespace
}  // namespace xr::queueing
