#include "queueing/mm1.h"

#include <stdexcept>

namespace xr::queueing {

bool mm1_stable(double lambda, double mu) noexcept {
  return lambda > 0.0 && mu > 0.0 && lambda < mu;
}

MM1::MM1(double lambda, double mu) : lambda_(lambda), mu_(mu) {
  if (!mm1_stable(lambda, mu))
    throw std::invalid_argument(
        "MM1: requires 0 < lambda < mu for stability");
}

double MM1::utilization() const noexcept { return lambda_ / mu_; }

double MM1::mean_time_in_system() const noexcept {
  return 1.0 / (mu_ - lambda_);
}

double MM1::mean_waiting_time() const noexcept {
  return utilization() / (mu_ - lambda_);
}

double MM1::mean_number_in_system() const noexcept {
  const double rho = utilization();
  return rho / (1.0 - rho);
}

double MM1::mean_number_in_queue() const noexcept {
  const double rho = utilization();
  return rho * rho / (1.0 - rho);
}

double MM1::probability_empty() const noexcept { return 1.0 - utilization(); }

double MM1::average_aoi() const noexcept {
  const double rho = utilization();
  return (1.0 / mu_) * (1.0 + 1.0 / rho + rho * rho / (1.0 - rho));
}

}  // namespace xr::queueing
