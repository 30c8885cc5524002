#include "xrsim/sensors.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "wireless/propagation.h"

namespace xr::xrsim {

std::vector<AoiObservation> simulate_sensor_aoi(
    const core::SensorConfig& sensor, const core::BufferConfig& buffer,
    double request_period_ms, int cycles, const SensorSimConfig& config) {
  if (cycles < 1)
    throw std::invalid_argument("simulate_sensor_aoi: need >= 1 cycle");
  if (request_period_ms <= 0)
    throw std::invalid_argument("simulate_sensor_aoi: period must be > 0");
  if (!(sensor.generation_hz > 0))
    throw std::invalid_argument(
        "simulate_sensor_aoi: sensor frequency must be > 0");

  const math::Rng root(config.seed);
  math::Rng jitter = root.stream("sensor-jitter");
  math::Rng queue = root.stream("buffer-sojourn");

  const double period_ms = 1000.0 / sensor.generation_hz;
  const double prop_ms = wireless::propagation_delay_ms(sensor.distance_m);
  const double mu = buffer.service_rate_per_ms;
  const double lambda = buffer.external_arrival_per_ms;
  if (lambda >= mu)
    throw std::invalid_argument("simulate_sensor_aoi: unstable buffer");

  std::vector<AoiObservation> observations(static_cast<std::size_t>(cycles));

  // Sensor process: generation cycle n completes at ~n * period (the first
  // cycle starts at t = 0 and needs one full generation interval).
  double completion = 0.0;
  for (int n = 1; n <= cycles; ++n) {
    double cycle_len = period_ms;
    if (config.generation_jitter_fraction > 0)
      cycle_len *= 1.0 + jitter.normal(0.0, config.generation_jitter_fraction);
    if (cycle_len < 1e-6) cycle_len = 1e-6;
    completion += cycle_len;
    if (!std::isfinite(completion))
      throw std::invalid_argument(
          "simulate_sensor_aoi: sensor frequency too low, generation times "
          "overflow");

    // The packet leaves the sensor, crosses the air, and queues in the
    // input buffer; M/M/1 FCFS sojourn is Exp(µ − λ).
    const double sojourn = queue.exponential(mu - lambda);
    auto& obs = observations[std::size_t(n - 1)];
    obs.cycle = n;
    obs.request_time_ms = double(n - 1) * request_period_ms;
    obs.generated_time_ms = completion;
    obs.delivered_time_ms = completion + prop_ms + sojourn;
    // Age of update n when the application consumes it: the time elapsed
    // since the request it answers was issued, accounting for delivery.
    // As in the analytical model, information can never be fresher than
    // one generation cycle plus its delivery delay, which floors the age
    // for sensors faster than the request rate.
    const double delivery = obs.delivered_time_ms - obs.generated_time_ms;
    obs.aoi_ms = std::max(obs.delivered_time_ms - obs.request_time_ms,
                          cycle_len + delivery);
  }
  return observations;
}

double mean_observed_aoi_ms(const std::vector<AoiObservation>& observations) {
  if (observations.empty())
    throw std::invalid_argument("mean_observed_aoi_ms: empty input");
  double sum = 0;
  for (const auto& o : observations) sum += o.aoi_ms;
  return sum / double(observations.size());
}

}  // namespace xr::xrsim
