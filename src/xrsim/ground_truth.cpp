#include "xrsim/ground_truth.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/latency_model.h"
#include "devices/power.h"
#include "wireless/propagation.h"

namespace xr::xrsim {

GroundTruthSimulator::GroundTruthSimulator(GroundTruthConfig config)
    : config_(config) {}

double GroundTruthSimulator::hidden_compute_inflation(
    double frame_size, double cpu_ghz) const noexcept {
  // Cache pressure: super-linear cost growth with frame size. Centered at
  // the 500-unit operating point so the inflation is ±strength/2 across the
  // paper's 300–700 sweep.
  const double cache =
      config_.cache_pressure_strength * 0.5 *
      ((frame_size / 500.0) * (frame_size / 500.0) - 1.0);
  // DVFS/scheduler bias: mid-range clocks lose a little effective
  // throughput; zero at 1 and 3 GHz, maximal near 2 GHz.
  const double dvfs = config_.dvfs_bias_strength * 0.25 *
                      -((cpu_ghz - 1.0) * (cpu_ghz - 3.0));
  return std::clamp(1.0 + cache + dvfs, 0.8, 1.25);
}

double GroundTruthSimulator::hidden_power_inflation(
    double cpu_ghz) const noexcept {
  // Real silicon draws slightly more than the regression at high clocks
  // (leakage grows with voltage) and slightly less at the bottom.
  return std::clamp(
      1.0 + config_.power_bias_strength * 0.5 * (cpu_ghz - 2.0), 0.8, 1.25);
}

namespace {

/// Multiplicative lognormal jitter with sigma as a fraction.
double jitter(math::Rng& rng, double sigma) {
  if (sigma <= 0) return 1.0;
  return rng.lognormal(-0.5 * sigma * sigma, sigma);
}

}  // namespace

GroundTruthResult GroundTruthSimulator::run(
    const core::ScenarioConfig& s,
    std::optional<std::size_t> frames_override) const {
  core::validate(s);
  const std::size_t frames = frames_override.value_or(config_.frames);
  GroundTruthResult result;
  if (config_.record_frames) result.frames.reserve(frames);

  // The simulator *reuses the same physical sub-models* the analytical
  // framework derives its equations from (that is the point of the paper's
  // regressions — they approximate the device), but perturbs them with the
  // hidden effects declared in the config.
  const core::LatencyModel analytical;  // paper-coefficient sub-models
  const auto& sub = analytical.submodels();
  const devices::PowerModel power_true(
      devices::PowerCoefficients{}, config_.base_power_true_mw,
      config_.thermal_fraction_true);
  const PowerMonitor monitor(config_.monitor);

  // One independent named stream per effect, so adding a draw to one
  // effect never shifts another's sequence.
  const math::Rng root(config_.seed);
  math::Rng rng_res = root.stream("resource");
  math::Rng rng_enc = root.stream("encoder");
  math::Rng rng_net = root.stream("network");
  math::Rng rng_pow = root.stream("power");
  math::Rng rng_qs = root.stream("queues");
  math::Rng rng_os = root.stream("os");
  math::Rng rng_ho = root.stream("handoff");

  const bool local =
      s.inference.placement == core::InferencePlacement::kLocal;
  const double eta =
      hidden_compute_inflation(s.frame.frame_size, s.client.cpu_ghz);
  const double p_eta = hidden_power_inflation(s.client.cpu_ghz);
  const double frame_interval = 1000.0 / s.frame.fps;
  // Frame q starts at q * frame_interval. A rate so low that the last
  // start time overflows (fps = 1e-310 makes the interval itself inf) has
  // no meaningful frame clock, so it is refused rather than simulated.
  if (frames > 0 && !std::isfinite(double(frames - 1) * frame_interval))
    throw std::invalid_argument(
        "GroundTruthSimulator::run: fps too low, frame start times overflow");

  const double mu = s.buffer.service_rate_per_ms;
  const auto buffer_wait = [&](double lambda) {
    // Exact M/M/1 FCFS sojourn: Exp(mu - lambda).
    return rng_qs.exponential(mu - lambda);
  };

  // Mobility handled as Bernoulli zone exits per frame.
  double p_ho = 0.0;
  double l_ho_h = 0.0, l_ho_v = 0.0;
  if (s.mobility.enabled && !local) {
    const wireless::HandoffModel hom(
        s.mobility.handoff, s.mobility.zone_radius_m,
        s.mobility.step_length_per_frame_m, s.mobility.vertical_fraction);
    p_ho = hom.handoff_probability();
    l_ho_h = hom.event_latency_ms(wireless::HandoffKind::kHorizontal);
    l_ho_v = hom.event_latency_ms(wireless::HandoffKind::kVertical);
  }

  // The power profile is hoisted out of the frame loop: one
  // cleared-and-refilled vector serves every frame without a fresh
  // allocation each time.
  std::vector<PowerInterval> profile;
  profile.reserve(10);
  for (std::size_t q = 0; q < frames; ++q) {
    FrameRecord rec;
    rec.frame = int(q);

    // --- Resource realization for this frame -------------------------
    const double c_model = sub.allocation.evaluate(
        s.client.cpu_ghz, s.client.gpu_ghz, s.client.omega_c);
    const double c_true =
        std::max(c_model / (eta * jitter(rng_res, config_.resource_noise)),
                 0.1);
    const double m = s.client.memory_bandwidth_gbps;

    // --- Frame generation (capture + ISP) -----------------------------
    rec.frame_generation_ms = frame_interval +
                              s.frame.frame_size / c_true +
                              core::raw_frame_mb(s.frame) / m;
    // --- Volumetric data ----------------------------------------------
    rec.volumetric_ms = s.frame.scene_size / c_true +
                        core::volumetric_mb(s.frame) / m;

    // --- External sensors: slowest sensor, N updates ------------------
    double ext = 0.0;
    for (const auto& sensor : s.sensors) {
      const double per =
          (1000.0 / sensor.generation_hz) *
              jitter(rng_qs, 0.02) +
          wireless::propagation_delay_ms(sensor.distance_m);
      ext = std::max(ext, per * double(s.updates_per_frame));
    }
    rec.external_ms = ext;

    // --- Input buffer: sampled sojourns of the three classes ----------
    rec.buffer_wait_ms = buffer_wait(s.buffer.frame_arrival_per_ms) +
                         buffer_wait(s.buffer.volumetric_arrival_per_ms) +
                         buffer_wait(s.buffer.external_arrival_per_ms);

    // --- Inference path ------------------------------------------------
    double result_delivery_ms = 0.0;
    if (local) {
      rec.conversion_or_encode_ms = s.frame.frame_size / c_true +
                                    core::raw_frame_mb(s.frame) / m;
      const auto& cnn = devices::cnn_by_name(s.inference.local_cnn_name);
      const double complexity = sub.cnn.evaluate(cnn);
      rec.inference_ms =
          s.inference.omega_client *
          (s.frame.converted_size / (c_true * complexity) +
           core::converted_mb(s.frame) / m);
      result_delivery_ms = s.frame.inference_result_mb / m;
    } else {
      // Encode with content-dependent work.
      const double enc_bias =
          1.0 + config_.encoder_bias_strength * 0.5 *
                    (s.frame.frame_size / 500.0 - 1.0);
      const double work = sub.codec.encode_work(s.frame.frame_size,
                                                s.codec) *
                          enc_bias *
                          jitter(rng_enc, config_.encode_content_noise);
      rec.conversion_or_encode_ms =
          work / c_true + core::raw_frame_mb(s.frame) / m;

      // Uplink with fluctuating throughput.
      const double rate = s.network.throughput_mbps *
                          jitter(rng_net, config_.throughput_noise);
      const double payload =
          sub.codec.encoded_size_mb(s.frame.frame_size, s.codec) *
          jitter(rng_enc, 0.04);
      rec.transmission_ms =
          wireless::transmission_time_ms(payload, rate) +
          wireless::propagation_delay_ms(s.network.edge_distance_m);

      // Edge: decode + inference across the parallel servers (Eq. 15
      // geometry: slowest assigned share bounds the segment).
      double worst = 0.0;
      for (const auto& e : s.inference.edges) {
        const double c_edge =
            e.resource > 0 ? e.resource
                           : devices::kEdgeResourceRatio * c_true;
        const double dec = rec.conversion_or_encode_ms * c_true *
                           sub.codec.decode_discount() / c_edge;
        const auto& cnn = devices::cnn_by_name(e.cnn_name);
        const double complexity = sub.cnn.evaluate(cnn);
        const double s_f3 = s.inference.encoded_size > 0
                                ? s.inference.encoded_size
                                : s.frame.frame_size;
        const double infer =
            s_f3 / (c_edge * complexity) + payload / e.memory_bandwidth_gbps;
        worst = std::max(worst, e.omega_edge * (dec + infer));
      }
      rec.inference_ms = worst;

      // Result downlink to the renderer.
      result_delivery_ms =
          wireless::transmission_time_ms(s.frame.inference_result_mb,
                                         rate) +
          wireless::propagation_delay_ms(s.network.edge_distance_m);

      // Handoff?
      if (p_ho > 0 && rng_ho.bernoulli(p_ho)) {
        rec.handoff_ms =
            rng_ho.bernoulli(s.mobility.vertical_fraction) ? l_ho_v
                                                           : l_ho_h;
      }
    }

    // --- Rendering ------------------------------------------------------
    rec.rendering_ms = s.frame.frame_size / c_true +
                       core::raw_frame_mb(s.frame) / m +
                       rec.buffer_wait_ms + result_delivery_ms;

    // --- OS preemption stall --------------------------------------------
    double stall = 0.0;
    if (rng_os.bernoulli(config_.preemption_probability))
      stall = rng_os.exponential(1.0 / config_.preemption_mean_ms);
    rec.rendering_ms += stall;

    rec.total_latency_ms =
        rec.frame_generation_ms + rec.volumetric_ms + rec.external_ms +
        rec.rendering_ms + rec.conversion_or_encode_ms + rec.inference_ms +
        rec.transmission_ms + rec.handoff_ms;

    // --- Energy: build the power profile and measure it -----------------
    const double p_compute =
        power_true.mean_power_mw(s.client.cpu_ghz, s.client.gpu_ghz,
                                 s.client.omega_c) *
        p_eta * jitter(rng_pow, config_.power_noise) *
        (1.0 + config_.thermal_fraction_true);
    const double p_base = config_.base_power_true_mw;
    const double p_tx = 800.0, p_rx = 300.0, p_idle = 150.0;

    profile.clear();
    const auto add = [&](double dur, double pw) {
      if (dur > 0) profile.push_back({dur, pw + p_base});
    };
    add(rec.frame_generation_ms, p_compute);
    add(rec.volumetric_ms, p_compute);
    add(rec.external_ms, p_rx);
    add(rec.conversion_or_encode_ms, p_compute);
    if (local) {
      add(rec.inference_ms, p_compute);
    } else {
      add(rec.transmission_ms, p_tx);
      add(rec.inference_ms, p_idle);
      add(rec.handoff_ms, p_tx);
    }
    add(rec.rendering_ms, p_compute);
    rec.energy_mj = monitor.measure_energy_mj(profile, rng_pow);

    if (config_.record_frames) result.frames.push_back(rec);
    result.latency.add(rec.total_latency_ms);
    result.energy.add(rec.energy_mj);
  }
  return result;
}

}  // namespace xr::xrsim
