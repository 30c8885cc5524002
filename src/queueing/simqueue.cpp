#include "queueing/simqueue.h"

#include <algorithm>
#include <stdexcept>

namespace xr::queueing {

QueueSimResult simulate_fifo(const std::vector<double>& interarrival_times,
                             const std::vector<double>& service_times) {
  if (interarrival_times.size() != service_times.size())
    throw std::invalid_argument("simulate_fifo: length mismatch");
  if (interarrival_times.empty())
    throw std::invalid_argument("simulate_fifo: empty input");

  QueueSimResult result;
  result.jobs.reserve(interarrival_times.size());

  double clock = 0;
  double server_free_at = 0;
  double wait_sum = 0, sojourn_sum = 0;

  for (std::size_t i = 0; i < interarrival_times.size(); ++i) {
    if (interarrival_times[i] < 0 || service_times[i] < 0)
      throw std::invalid_argument("simulate_fifo: negative time");
    clock += interarrival_times[i];
    JobRecord job;
    job.arrival_time = clock;
    job.service_start = std::max(clock, server_free_at);
    job.departure_time = job.service_start + service_times[i];
    server_free_at = job.departure_time;
    wait_sum += job.waiting_time();
    sojourn_sum += job.time_in_system();
    result.jobs.push_back(job);
  }

  const auto n = double(result.jobs.size());
  result.mean_wait = wait_sum / n;
  result.mean_sojourn = sojourn_sum / n;

  // Time-averaged AoI via the sawtooth decomposition. The age at the
  // monitor resets to (departure - arrival of the *freshest delivered*
  // update); FIFO delivery keeps updates in generation order, so each
  // departure j resets age to the sojourn of job j.
  //
  // Integrate the sawtooth between consecutive departures:
  // between D_{j-1} and D_j the age grows linearly from
  // (D_{j-1} - A_{j-1}) to (D_j - A_{j-1}).
  double area = 0;
  double horizon_start = result.jobs.front().departure_time;
  for (std::size_t j = 1; j < result.jobs.size(); ++j) {
    const auto& prev = result.jobs[j - 1];
    const auto& cur = result.jobs[j];
    const double lo = cur.departure_time - prev.arrival_time;  // age just
    const double hi = prev.departure_time - prev.arrival_time; // after/before
    const double dt = cur.departure_time - prev.departure_time;
    // Trapezoid with left value `hi` growing to right value `lo`.
    area += 0.5 * (hi + lo) * dt;
  }
  const double horizon =
      result.jobs.back().departure_time - horizon_start;
  result.mean_aoi = horizon > 0 ? area / horizon : result.mean_sojourn;
  return result;
}

QueueSimResult simulate_mm1(double lambda, double mu, std::size_t jobs,
                            math::Rng& rng) {
  if (jobs == 0) throw std::invalid_argument("simulate_mm1: zero jobs");
  std::vector<double> inter(jobs), service(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    inter[i] = rng.exponential(lambda);
    service[i] = rng.exponential(mu);
  }
  return simulate_fifo(inter, service);
}

}  // namespace xr::queueing
