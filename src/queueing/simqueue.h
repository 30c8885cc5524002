// Empirical single-server FIFO queue simulation (Lindley recursion).
//
// Cross-validates the closed-form M/M/1 results: generate arrival and
// service sequences, push them through the exact waiting-time recursion,
// and compare empirical means with theory. Also measures empirical
// Age-of-Information for the AoI validation (Fig. 4e).
#pragma once

#include <cstddef>
#include <vector>

#include "math/rng.h"

namespace xr::queueing {

/// Per-job record from a queue simulation.
struct JobRecord {
  double arrival_time = 0;
  double service_start = 0;
  double departure_time = 0;

  [[nodiscard]] double waiting_time() const noexcept {
    return service_start - arrival_time;
  }
  [[nodiscard]] double time_in_system() const noexcept {
    return departure_time - arrival_time;
  }
};

/// Summary of a simulated queue run.
struct QueueSimResult {
  std::vector<JobRecord> jobs;
  double mean_wait = 0;
  double mean_sojourn = 0;
  /// Time-averaged Age-of-Information, computed from the departure process
  /// assuming each job is a status update generated at its arrival time.
  double mean_aoi = 0;
};

/// Simulate a FIFO single-server queue given explicit interarrival and
/// service times (equal lengths). Throws std::invalid_argument on mismatch.
[[nodiscard]] QueueSimResult simulate_fifo(
    const std::vector<double>& interarrival_times,
    const std::vector<double>& service_times);

/// Simulate an M/M/1 queue for `jobs` jobs with the given rates and RNG.
[[nodiscard]] QueueSimResult simulate_mm1(double lambda, double mu,
                                          std::size_t jobs, math::Rng& rng);

}  // namespace xr::queueing
