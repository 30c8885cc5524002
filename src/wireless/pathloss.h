// Path-loss, shadowing, and fading models.
//
// The paper's base latency model "assume[s] no path loss, shadowing, or
// fading effects ... which can be incorporated into the model according to
// system requirements" (§IV). This module supplies those optional effects:
// free-space / log-distance / two-ray path loss, lognormal shadowing, and
// Rayleigh/Rician small-scale fading. No model or simulator calls it yet;
// a caller would turn its SNR into the throughput input of Eq. 16.
#pragma once

#include "math/rng.h"

namespace xr::wireless {

/// Free-space path loss in dB at distance d (m) and frequency f (Hz).
/// FSPL = 20 log10(d) + 20 log10(f) − 147.55. Requires d, f > 0.
[[nodiscard]] double free_space_path_loss_db(double distance_m,
                                             double frequency_hz);

/// Log-distance path loss: PL(d) = PL(d0) + 10 n log10(d/d0).
/// Requires d >= d0 > 0 and exponent n > 0.
[[nodiscard]] double log_distance_path_loss_db(double distance_m,
                                               double reference_distance_m,
                                               double reference_loss_db,
                                               double exponent);

/// Two-ray ground-reflection loss (far field): PL = 40 log10(d)
/// − 20 log10(ht hr). Requires positive arguments.
[[nodiscard]] double two_ray_path_loss_db(double distance_m,
                                          double tx_height_m,
                                          double rx_height_m);

/// Lognormal shadowing sample in dB: N(0, sigma_db).
[[nodiscard]] double shadowing_db(double sigma_db, math::Rng& rng);

/// Rayleigh-fading power gain (linear, mean 1): Exp(1).
[[nodiscard]] double rayleigh_power_gain(math::Rng& rng);

/// Rician-fading power gain (linear, mean 1) with K-factor (linear >= 0).
/// K = 0 degenerates to Rayleigh.
[[nodiscard]] double rician_power_gain(double k_factor, math::Rng& rng);

/// Convert dB to linear power ratio and back.
[[nodiscard]] double db_to_linear(double db) noexcept;
[[nodiscard]] double linear_to_db(double linear);

/// Shannon capacity in Mbit/s for bandwidth (MHz) and linear SNR.
[[nodiscard]] double shannon_capacity_mbps(double bandwidth_mhz,
                                           double snr_linear);

/// Received SNR (linear) from tx power (dBm), path loss (dB), shadowing
/// (dB), fading power gain (linear), and noise floor (dBm).
[[nodiscard]] double received_snr_linear(double tx_power_dbm,
                                         double path_loss_db,
                                         double shadowing_db,
                                         double fading_gain_linear,
                                         double noise_floor_dbm);

}  // namespace xr::wireless
