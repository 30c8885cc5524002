#include "runtime/decision_batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>

#include "core/energy_model.h"
#include "core/latency_model.h"
#include "core/pipeline.h"
#include "devices/power.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace xr::runtime {

namespace {

// Serving-kernel telemetry: prepare (table build, model walks) vs run
// (branch-free sweep) is the split the ≥2× SoA gate cares about. Nothing
// is recorded inside eval_range — the hot loop stays clock-free.
struct KernelMetrics {
  obs::Counter prepares{"serving.kernel.prepares"};
  obs::Histogram prepare_ms{"serving.kernel.prepare_ms",
                            obs::Histogram::latency_bounds_ms()};
  obs::Gauge table_entries{"serving.kernel.table_entries"};
  /// Scenarios the last prepare built and validated to fill its tables.
  obs::Gauge scenarios{"serving.kernel.scenarios"};
  obs::Counter runs{"serving.kernel.runs"};
  obs::Counter decisions{"serving.kernel.decisions"};
  obs::Histogram run_ms{"serving.kernel.run_ms",
                        obs::Histogram::latency_bounds_ms()};
  obs::Gauge decisions_per_sec{"serving.kernel.last_decisions_per_sec"};

  static KernelMetrics& get() {
    static KernelMetrics m;
    return m;
  }
};

}  // namespace

namespace {

std::atomic<bool> g_batch_kernel_enabled{true};

/// Which placement path a segment belongs to. Off-path segments stay at
/// the literal 0.0 the scalar LatencyBreakdown/EnergyBreakdown carries.
enum class PathMask { kAny, kLocalOnly, kRemoteOnly };

/// Which power rail charges a segment (Eq. 20/21 vs the radio states).
enum class EnergySource { kCompute, kRadioRx, kRadioTx, kRadioIdleWait };

/// One Eq. (1) segment's dependency tuple: the serializable knobs its
/// LatencyModel method (and energy counterpart) reads. An axis outside a
/// segment's set provably cannot change that segment's value, which is
/// what licenses pinning it at coordinate 0 during table fill. `placement`
/// appears wherever the segment is path-masked (the mask reads it) or the
/// value itself branches on it (rendering's result-delivery term).
struct SegmentRecipe {
  PathMask mask;
  EnergySource energy;
  std::vector<const char*> deps;
};

/// Indexed in the exact order LatencyModel::evaluate sums Eq. (1) — the
/// reduction loops in eval_range rely on it.
const std::array<SegmentRecipe, 11>& segment_recipes() {
  static const std::array<SegmentRecipe, 11> recipes = {{
      // frame generation
      {PathMask::kAny,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size"}},
      // volumetric data
      {PathMask::kAny,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size"}},
      // external sensors (radio receive; sensor set is never an axis)
      {PathMask::kAny, EnergySource::kRadioRx, {}},
      // rendering (result delivery crosses memory or wireless → placement
      // and throughput are genuine value dependencies, not just a mask)
      {PathMask::kAny,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "throughput_mbps", "placement"}},
      // frame conversion
      {PathMask::kLocalOnly,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "placement"}},
      // encoding
      {PathMask::kRemoteOnly,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "codec_mbps", "placement"}},
      // local inference
      {PathMask::kLocalOnly,
       EnergySource::kCompute,
       {"cpu_ghz", "omega_c", "frame_size", "local_cnn", "placement"}},
      // remote inference (device idles on the radio while edges work)
      {PathMask::kRemoteOnly,
       EnergySource::kRadioIdleWait,
       {"cpu_ghz", "omega_c", "frame_size", "edge_cnn", "edge_count",
        "codec_mbps", "placement"}},
      // transmission
      {PathMask::kRemoteOnly,
       EnergySource::kRadioTx,
       {"frame_size", "codec_mbps", "throughput_mbps", "placement"}},
      // handoff (mobility config is base-constant)
      {PathMask::kRemoteOnly, EnergySource::kRadioTx, {"placement"}},
      // cooperation
      {PathMask::kAny, EnergySource::kRadioTx, {"throughput_mbps"}},
  }};
  return recipes;
}

constexpr std::size_t kCooperation = 10;

double segment_latency_ms(const core::LatencyModel& m, std::size_t seg,
                          const core::ScenarioConfig& s) {
  switch (seg) {
    case 0: return m.frame_generation_ms(s);
    case 1: return m.volumetric_ms(s);
    case 2: return m.external_sensors_ms(s);
    case 3: return m.rendering_ms(s);
    case 4: return m.frame_conversion_ms(s);
    case 5: return m.encoding_ms(s);
    case 6: return m.local_inference_ms(s);
    case 7: return m.remote_inference_ms(s);
    case 8: return m.transmission_ms(s);
    case 9: return m.handoff_ms(s);
    default: return m.cooperation_ms(s);
  }
}

/// Every knob the recipes above map. A grid using anything else (a future
/// vocabulary extension) is not eligible — prepare() returns nullopt and
/// the caller keeps the scalar path, instead of a stale dependency map
/// silently computing wrong totals.
constexpr const char* kKnownKnobs[] = {
    "frame_size", "cpu_ghz",    "omega_c",  "codec_mbps", "throughput_mbps",
    "edge_count", "placement",  "local_cnn", "edge_cnn"};

}  // namespace

void set_batch_decision_kernel(bool enabled) noexcept {
  g_batch_kernel_enabled.store(enabled, std::memory_order_relaxed);
}

bool batch_decision_kernel_enabled() noexcept {
  return g_batch_kernel_enabled.load(std::memory_order_relaxed);
}

std::optional<DecisionBatchKernel> DecisionBatchKernel::prepare(
    const GridSpec& spec, const core::XrPerformanceModel& model) {
  const obs::Span span("kernel.prepare");
  const auto prep_start = std::chrono::steady_clock::now();
  for (const AxisSpec& axis : spec.axes) {
    const bool known =
        std::any_of(std::begin(kKnownKnobs), std::end(kKnownKnobs),
                    [&](const char* k) { return axis.knob == k; });
    if (!known) return std::nullopt;
  }
  const ScenarioGrid grid = spec.build();

  DecisionBatchKernel kernel;
  kernel.model_ = model;
  kernel.size_ = grid.size();
  kernel.radix_.reserve(grid.axis_count());
  for (std::size_t k = 0; k < grid.axis_count(); ++k)
    kernel.radix_.push_back(grid.axis(k).points.size());

  const core::LatencyModel& latency = model.latency_model();
  const devices::PowerModel& power = model.energy_model().power_model();
  const core::RadioPowerConfig& radio = model.energy_model().radio();
  const auto& recipes = segment_recipes();

  // Each segment's axes in declaration order (the order the strides
  // assume), also as a bit mask (a grid has at most nine axes), and its
  // table, zeroed.
  std::array<std::uint32_t, 11> seg_mask{};
  for (std::size_t seg = 0; seg < recipes.size(); ++seg) {
    std::vector<std::size_t> dep_axes;
    for (std::size_t k = 0; k < spec.axes.size(); ++k)
      for (const char* dep : recipes[seg].deps)
        if (spec.axes[k].knob == dep) {
          dep_axes.push_back(k);
          seg_mask[seg] |= 1u << k;
          break;
        }
    SegmentTable& table = kernel.tables_[seg];
    table.terms.resize(dep_axes.size());
    std::size_t stride = 1;
    for (std::size_t j = dep_axes.size(); j-- > 0;) {
      table.terms[j] = SegmentTable::IndexTerm{dep_axes[j], stride};
      stride *= kernel.radix_[dep_axes[j]];
    }
    table.latency_ms.assign(stride, 0.0);
    table.energy_mj.assign(stride, 0.0);
  }

  // An entry's path is its placement coordinate's, or the base's when no
  // axis sets placement (only the placement applier writes it), so masked
  // entries are known before anything is built and are never built: they
  // keep the literal 0.0 the scalar breakdown carries. So does cooperation,
  // unless the base both runs and counts it (base constants, Eq. 1).
  std::optional<std::size_t> placement_axis;
  std::vector<bool> point_local;
  for (std::size_t k = 0; k < spec.axes.size(); ++k)
    if (spec.axes[k].knob == "placement") {
      placement_axis = k;
      for (const std::string& name : spec.axes[k].strings)
        point_local.push_back(core::placement_from_name(name) ==
                              core::InferencePlacement::kLocal);
    }
  const core::ScenarioConfig& base = grid.base();
  const bool base_local =
      base.inference.placement == core::InferencePlacement::kLocal;
  const bool cooperation_counted =
      base.cooperation.active && base.cooperation.include_in_total;
  const auto on_path = [&](std::size_t seg, bool local) {
    if (seg == kCooperation && !cooperation_counted) return false;
    switch (recipes[seg].mask) {
      case PathMask::kLocalOnly: return local;
      case PathMask::kRemoteOnly: return !local;
      default: return true;
    }
  };

  // Walk only the maximal dependency tuples, the ones no other segment's
  // tuple strictly contains. A walk entry's coordinates outside the walk's
  // tuple are 0, so the entry is a table entry of every segment whose tuple
  // holds its nonzero coordinates. Only the first walk whose tuple holds
  // them builds it, and that one scenario fills every such segment.
  const auto holds = [](std::uint32_t outer, std::uint32_t inner) {
    return (outer & inner) == inner;
  };
  std::vector<std::uint32_t> walks;
  for (const std::uint32_t own : seg_mask) {
    const bool maximal =
        std::none_of(seg_mask.begin(), seg_mask.end(), [&](std::uint32_t o) {
          return o != own && holds(o, own);
        });
    if (maximal && std::find(walks.begin(), walks.end(), own) == walks.end())
      walks.push_back(own);
  }

  // Read a segment off the same compiled model methods the scalar path
  // calls, into the entry `coords` addresses.
  const auto fill = [&](std::size_t seg, const core::ScenarioConfig& s,
                        const std::vector<std::size_t>& coords) {
    SegmentTable& table = kernel.tables_[seg];
    std::size_t flat = 0;
    for (const SegmentTable::IndexTerm& term : table.terms)
      flat += coords[term.axis] * term.stride;
    const double lat = segment_latency_ms(latency, seg, s);
    table.latency_ms[flat] = lat;
    switch (recipes[seg].energy) {
      case EnergySource::kCompute:
        // Same call chain as the scalar path: Eq. (21) mean power for
        // this scenario's allocation, times the segment duration.
        table.energy_mj[flat] = power.segment_energy_mj(
            lat, s.client.cpu_ghz, s.client.gpu_ghz, s.client.omega_c);
        break;
      case EnergySource::kRadioRx:
        table.energy_mj[flat] = radio.rx_mw * lat / 1000.0;
        break;
      case EnergySource::kRadioTx:
        table.energy_mj[flat] = radio.tx_mw * lat / 1000.0;
        break;
      case EnergySource::kRadioIdleWait:
        table.energy_mj[flat] = radio.idle_wait_mw * lat / 1000.0;
        break;
    }
  };

  // Scenarios come from the grid's own appliers through a prefix cursor,
  // never a re-implementation of them.
  ScenarioGrid::Cursor cursor(grid);
  std::vector<std::size_t> coords(kernel.radix_.size(), 0);
  std::size_t scenarios = 0;

  // A value that only masked entries carry is never built by the walks.
  // One scenario per axis value (that value, every other coordinate 0)
  // validates it, so every grid the scalar path rejects is still rejected.
  for (std::size_t k = 0; k < coords.size(); ++k) {
    for (std::size_t v = 0; v < kernel.radix_[k]; ++v) {
      coords[k] = v;
      core::validate(cursor.at(coords));
      ++scenarios;
    }
    coords[k] = 0;
  }

  for (auto walk = walks.begin(); walk != walks.end(); ++walk) {
    std::vector<std::size_t> axes;
    for (std::size_t k = 0; k < coords.size(); ++k)
      if (*walk >> k & 1u) axes.push_back(k);
    std::size_t entries = 1;
    for (std::size_t a : axes) entries *= kernel.radix_[a];
    for (std::size_t e = 0; e < entries; ++e) {
      std::uint32_t nonzero = 0;
      for (std::size_t a : axes)
        if (coords[a] != 0) nonzero |= 1u << a;
      const bool first_walk =
          std::none_of(walks.begin(), walk, [&](std::uint32_t earlier) {
            return holds(earlier, nonzero);
          });
      const bool local =
          placement_axis ? point_local[coords[*placement_axis]] : base_local;
      const core::ScenarioConfig* s = nullptr;
      for (std::size_t seg = 0; first_walk && seg < recipes.size(); ++seg) {
        if (!holds(seg_mask[seg], nonzero) || !on_path(seg, local)) continue;
        if (!s) {
          s = &cursor.at(coords);
          core::validate(*s);
          ++scenarios;
        }
        fill(seg, *s, coords);
      }
      // Mixed-radix odometer over the walk's axes, last fastest; it wraps
      // back to all zeros after the last entry.
      for (std::size_t j = axes.size(); j-- > 0;) {
        if (++coords[axes[j]] < kernel.radix_[axes[j]]) break;
        coords[axes[j]] = 0;
      }
    }
  }
  KernelMetrics& metrics = KernelMetrics::get();
  metrics.prepares.add();
  metrics.prepare_ms.observe(std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - prep_start)
                                 .count());
  metrics.table_entries.set(double(kernel.table_entries()));
  metrics.scenarios.set(double(scenarios));
  return kernel;
}

std::size_t DecisionBatchKernel::table_entries() const noexcept {
  std::size_t total = 0;
  for (const SegmentTable& t : tables_) total += t.latency_ms.size();
  return total;
}

void DecisionBatchKernel::eval_range(std::size_t begin, std::size_t end,
                                     double* latency_out,
                                     double* energy_out) const {
  // prepare() admits only the known knobs, each at most once.
  const std::size_t n_axes = radix_.size();
  std::array<std::size_t, std::size(kKnownKnobs)> coords{};
  std::size_t rest = begin;
  for (std::size_t k = n_axes; k-- > 0;) {
    coords[k] = rest % radix_[k];
    rest /= radix_[k];
  }
  const devices::PowerModel& power = model_.energy_model().power_model();

  std::array<double, 11> lat{}, nrg{};
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const SegmentTable& table = tables_[t];
      std::size_t idx = 0;
      for (const SegmentTable::IndexTerm& term : table.terms)
        idx += coords[term.axis] * term.stride;
      lat[t] = table.latency_ms[idx];
      nrg[t] = table.energy_mj[idx];
    }

    // Eq. (1) in LatencyModel::evaluate's exact left-to-right association;
    // off-path segments contribute the same literal 0.0 the scalar
    // breakdown fields hold.
    double total_ms = lat[0];
    for (std::size_t t = 1; t < lat.size(); ++t) total_ms += lat[t];

    // Eq. (19): segment_sum, then base and thermal. base/thermal stay
    // out-of-line PowerModel calls so the multiply happens in the same
    // compiled code as the scalar path — an inline multiply here could be
    // contracted into the following addition (FMA) and round differently.
    double segment_sum = nrg[0];
    for (std::size_t t = 1; t < nrg.size(); ++t) segment_sum += nrg[t];
    double total_mj = segment_sum;
    total_mj += power.base_energy_mj(total_ms);
    total_mj += power.thermal_energy_mj(segment_sum);

    latency_out[i - begin] = total_ms;
    energy_out[i - begin] = total_mj;

    // Mixed-radix odometer, last axis fastest — ScenarioGrid::coords order.
    for (std::size_t k = n_axes; k-- > 0;) {
      if (++coords[k] < radix_[k]) break;
      coords[k] = 0;
    }
  }
}

DecisionBatchKernel::Totals DecisionBatchKernel::run(
    const BatchOptions& options) const {
  const obs::Span span("kernel.run");
  Totals out;
  out.latency_ms.resize(size_);
  out.energy_mj.resize(size_);
  const auto start = std::chrono::steady_clock::now();

  if (options.threads == 1) {
    eval_range(0, size_, out.latency_ms.data(), out.energy_mj.data());
    out.threads = 1;
  } else {
    const auto run_on = [&](ThreadPool& pool) {
      out.threads = pool.size();
      // Chunks of consecutive indices so each task pays one odometer seed;
      // writes land in disjoint ranges, so results are thread-invariant.
      const std::size_t chunk =
          options.grain
              ? options.grain
              : std::max<std::size_t>(1024, size_ / (8 * pool.size()) + 1);
      const std::size_t chunks = (size_ + chunk - 1) / chunk;
      pool.parallel_for(
          chunks,
          [&](std::size_t c) {
            const std::size_t b = c * chunk;
            eval_range(b, std::min(size_, b + chunk),
                       out.latency_ms.data() + b, out.energy_mj.data() + b);
          },
          1);
    };
    if (options.threads == 0) {
      run_on(ThreadPool::shared());
    } else {
      ThreadPool pool(options.threads);
      run_on(pool);
    }
  }

  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  KernelMetrics& metrics = KernelMetrics::get();
  metrics.runs.add();
  metrics.decisions.add(size_);
  metrics.run_ms.observe(out.wall_ms);
  metrics.decisions_per_sec.set(
      out.wall_ms > 0 ? 1000.0 * double(size_) / out.wall_ms : 0.0);
  return out;
}

shard::MergedSummary DecisionBatchKernel::run_summary(
    std::uint64_t fingerprint, const ExecutionSpec& execution) const {
  const Totals totals = run(BatchOptions{execution.threads, execution.grain});
  const shard::ShardIdentity id{0, 1, shard::ShardStrategy::kRange, size_,
                                fingerprint};
  shard::PartialReduction partial(id, false);
  for (std::size_t i = 0; i < size_; ++i)
    partial.add(i, totals.latency_ms[i], totals.energy_mj[i]);
  partial.wall_ms = totals.wall_ms;
  partial.threads = totals.threads;
  return shard::merge_partials({partial});
}

void DecisionBatchKernel::fold_range(std::size_t begin, std::size_t end,
                                     const BlockFold& fold) const {
  if (begin > end || end > size_)
    throw std::out_of_range("DecisionBatchKernel::fold_range: [" +
                            std::to_string(begin) + ", " +
                            std::to_string(end) + ") is outside the " +
                            std::to_string(size_) + "-candidate grid");
  std::array<double, kFoldBlock> latency{}, energy{};
  for (std::size_t b = begin; b < end; b += kFoldBlock) {
    const std::size_t count = std::min(kFoldBlock, end - b);
    eval_range(b, b + count, latency.data(), energy.data());
    fold(b, count, latency.data(), energy.data());
  }
  KernelMetrics& metrics = KernelMetrics::get();
  metrics.runs.add();
  metrics.decisions.add(end - begin);
}

std::optional<shard::MergedSummary> try_run_request_batched(
    const SweepRequest& request, const core::XrPerformanceModel& model) {
  if (!batch_decision_kernel_enabled()) return std::nullopt;
  // Ground-truth and adaptive requests need per-point simulation — there
  // is nothing to hoist; only the pure analytical model factors by axis.
  if (request.adaptive || request.evaluator.is_ground_truth())
    return std::nullopt;
  const auto kernel = DecisionBatchKernel::prepare(request.grid, model);
  if (!kernel) return std::nullopt;
  return kernel->run_summary(request.fingerprint(), request.execution);
}

}  // namespace xr::runtime
