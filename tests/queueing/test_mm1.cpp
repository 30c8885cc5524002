#include "queueing/mm1.h"

#include <gtest/gtest.h>

#include <tuple>

namespace xr::queueing {
namespace {

TEST(MM1, StabilityPredicate) {
  EXPECT_TRUE(mm1_stable(1, 2));
  EXPECT_FALSE(mm1_stable(2, 2));
  EXPECT_FALSE(mm1_stable(3, 2));
  EXPECT_FALSE(mm1_stable(0, 2));
  EXPECT_FALSE(mm1_stable(1, 0));
}

TEST(MM1, ConstructionRejectsUnstable) {
  EXPECT_THROW(MM1(2, 2), std::invalid_argument);
  EXPECT_THROW(MM1(-1, 2), std::invalid_argument);
  EXPECT_NO_THROW(MM1(1.9, 2));
}

TEST(MM1, PaperBufferFormula) {
  // Eq. (22)/(7): T̄ = 1/(µ − λ).
  const MM1 q(0.2, 0.35);
  EXPECT_NEAR(q.mean_time_in_system(), 1.0 / 0.15, 1e-12);
}

TEST(MM1, StandardMetrics) {
  const MM1 q(2, 5);  // rho = 0.4
  EXPECT_DOUBLE_EQ(q.utilization(), 0.4);
  EXPECT_NEAR(q.mean_time_in_system(), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(q.mean_waiting_time(), 0.4 / 3.0, 1e-12);
  EXPECT_NEAR(q.mean_number_in_system(), 0.4 / 0.6, 1e-12);
  EXPECT_NEAR(q.mean_number_in_queue(), 0.16 / 0.6, 1e-12);
  EXPECT_NEAR(q.probability_empty(), 0.6, 1e-12);
}

TEST(MM1, WaitPlusServiceEqualsSojourn) {
  const MM1 q(3, 7);
  EXPECT_NEAR(q.mean_waiting_time() + 1.0 / 7.0, q.mean_time_in_system(),
              1e-12);
}

class Mm1LittlesLaw
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(Mm1LittlesLaw, LEqualsLambdaW) {
  const auto [lambda, mu] = GetParam();
  const MM1 q(lambda, mu);
  EXPECT_NEAR(q.mean_number_in_system(),
              lambda * q.mean_time_in_system(), 1e-10);
  EXPECT_NEAR(q.mean_number_in_queue(), lambda * q.mean_waiting_time(),
              1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, Mm1LittlesLaw,
    ::testing::Values(std::make_tuple(0.1, 1.0), std::make_tuple(0.5, 1.0),
                      std::make_tuple(0.9, 1.0), std::make_tuple(2.0, 9.0),
                      std::make_tuple(0.03, 0.35),
                      std::make_tuple(0.2, 0.35)));

TEST(MM1, AverageAoiKnownValue) {
  // Kaul-Yates-Gruteser: at rho = 0.5, mu = 1: AoI = 1 + 2 + 0.5 = 3.5.
  const MM1 q(0.5, 1.0);
  EXPECT_NEAR(q.average_aoi(), 3.5, 1e-12);
}

TEST(MM1, AoiExceedsSojourn) {
  // Age at the monitor is always at least the delivery delay.
  for (double rho : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const MM1 q(rho, 1.0);
    EXPECT_GT(q.average_aoi(), q.mean_time_in_system());
  }
}

TEST(MM1, AoiMinimizedAtModerateLoad) {
  // The M/M/1 AoI curve is U-shaped in rho with the optimum near 0.53.
  const double low = MM1(0.05, 1).average_aoi();
  const double mid = MM1(0.53, 1).average_aoi();
  const double high = MM1(0.95, 1).average_aoi();
  EXPECT_LT(mid, low);
  EXPECT_LT(mid, high);
}

}  // namespace
}  // namespace xr::queueing
