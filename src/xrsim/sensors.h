// External-sensor processes and empirical Age-of-Information measurement.
//
// Simulates sensor generation cycles: each sensor emits an information
// packet every 1/f_t (with optional phase jitter), the packet crosses the
// wireless medium (propagation delay) and the XR device's input buffer
// (sampled M/M/1 sojourn), and the XR application consumes the n-th packet
// at its n-th request instant. The observed ages form the empirical
// staircases the paper plots as "GT" in Figs. 4(e)/(f).
#pragma once

#include <vector>

#include "core/pipeline.h"
#include "math/rng.h"

namespace xr::xrsim {

/// One observed update at the XR device.
struct AoiObservation {
  int cycle = 0;                ///< n (1-based).
  double request_time_ms = 0;   ///< when the XR app asked for update n.
  double generated_time_ms = 0; ///< when the sensor finished generating it.
  double delivered_time_ms = 0; ///< generation + propagation + buffer wait.
  double aoi_ms = 0;            ///< observed age at consumption.
};

/// Stochastic knobs of the emulated sensor path.
struct SensorSimConfig {
  double generation_jitter_fraction = 0.02;  ///< jitter on each cycle length.
  std::uint64_t seed = 7;
};

/// Simulate `cycles` update cycles of one sensor against the XR request
/// schedule (one request per `request_period_ms`, first at t = 0).
/// Buffer waits are drawn from the exact M/M/1 sojourn distribution
/// Exp(µ − λ) of the external-information class. Throws
/// std::invalid_argument for cycles < 1, a request period <= 0, a sensor
/// frequency <= 0 or so low that generation times overflow, and an
/// unstable buffer (λ >= µ).
[[nodiscard]] std::vector<AoiObservation> simulate_sensor_aoi(
    const core::SensorConfig& sensor, const core::BufferConfig& buffer,
    double request_period_ms, int cycles, const SensorSimConfig& config);

/// Mean observed AoI over the simulated cycles.
[[nodiscard]] double mean_observed_aoi_ms(
    const std::vector<AoiObservation>& observations);

}  // namespace xr::xrsim
