// M/M/1 queueing formulas.
//
// The paper models the XR device's input buffer as a stable M/M/1 system:
// buffering time T̄ = 1/(µ − λ) (Eqs. 7 and 22). This module provides that
// quantity plus the standard derived metrics and the closed-form average
// Age-of-Information of an M/M/1 FCFS system, which the AoI validation uses
// as an independent cross-check.
#pragma once

namespace xr::queueing {

/// A stable M/M/1 queue with Poisson arrivals (rate lambda) and exponential
/// service (rate mu), lambda < mu. Rates are in events per unit time; all
/// returned times are in the same time unit.
class MM1 {
 public:
  /// Throws std::invalid_argument unless 0 < lambda < mu (stability).
  MM1(double lambda, double mu);

  [[nodiscard]] double arrival_rate() const noexcept { return lambda_; }
  [[nodiscard]] double service_rate() const noexcept { return mu_; }

  /// Utilization rho = lambda / mu, in (0, 1).
  [[nodiscard]] double utilization() const noexcept;
  /// Mean time in system W = 1 / (mu - lambda)  — the paper's T̄ (Eq. 22).
  [[nodiscard]] double mean_time_in_system() const noexcept;
  /// Mean waiting time in queue Wq = rho / (mu - lambda).
  [[nodiscard]] double mean_waiting_time() const noexcept;
  /// Mean number in system L = rho / (1 - rho).
  [[nodiscard]] double mean_number_in_system() const noexcept;
  /// Mean number in queue Lq = rho² / (1 - rho).
  [[nodiscard]] double mean_number_in_queue() const noexcept;
  /// P(system empty) = 1 - rho.
  [[nodiscard]] double probability_empty() const noexcept;

  /// Closed-form average Age-of-Information of an M/M/1 FCFS queue
  /// (Kaul–Yates–Gruteser 2012):
  ///   AoI = (1/mu) (1 + 1/rho + rho²/(1 − rho)).
  [[nodiscard]] double average_aoi() const noexcept;

 private:
  double lambda_;
  double mu_;
};

/// Whether (lambda, mu) form a stable M/M/1 system.
[[nodiscard]] bool mm1_stable(double lambda, double mu) noexcept;

}  // namespace xr::queueing
