#include "runtime/plan_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/decision_batch.h"
#include "runtime/offload_search.h"
#include "runtime/thread_pool.h"

namespace xr::runtime {

namespace {

// Per-tier serve telemetry, process-wide across every index instance (the
// per-instance PlanServeCounters stay authoritative for tests). The tier
// split is the serving story: exact = free, snap = free but approximate,
// computed = a full plan_offload search.
struct PlanIndexMetrics {
  obs::Counter exact_hits{"serving.plan_index.exact_hits"};
  obs::Counter snap_hits{"serving.plan_index.snap_hits"};
  obs::Counter computed{"serving.plan_index.computed"};
  obs::Counter builds{"serving.plan_index.builds"};
  obs::Gauge cells{"serving.plan_index.cells"};

  static PlanIndexMetrics& get() {
    static PlanIndexMetrics m;
    return m;
  }
};

constexpr const char* kIndexSchema = "xr.offload_plan_index.v1";
constexpr const char* kSpecSchema = "xr.offload_plan_index.spec.v1";

/// The bitwise tuple key of the exact tier: the raw bytes of every axis
/// coordinate, in axis order. Exactness here means bit-for-bit — the same
/// identity the JSON round trip preserves.
std::string bitwise_key(const std::vector<double>& values) {
  if (values.empty()) return {};
  std::string key(values.size() * sizeof(double), '\0');
  std::memcpy(key.data(), values.data(), key.size());
  return key;
}

}  // namespace

const char* plan_source_name(PlanSource s) noexcept {
  switch (s) {
    case PlanSource::kExactHit: return "exact_hit";
    case PlanSource::kNearestHit: return "nearest_hit";
    case PlanSource::kComputed: return "computed";
  }
  return "computed";
}

void PlanIndexSpec::validate() const {
  scenarios.validate();
  for (const AxisSpec& axis : scenarios.axes) {
    if (!knob_is_numeric(axis.knob))
      throw std::invalid_argument(
          "PlanIndexSpec: scenarios axis '" + axis.knob +
          "': index axes must be numeric scenario knobs (nearest-cell "
          "distance is undefined for string knobs)");
    for (std::size_t i = 0; i < axis.numbers.size(); ++i) {
      if (!std::isfinite(axis.numbers[i]))
        throw std::invalid_argument("PlanIndexSpec: scenarios axis '" +
                                    axis.knob +
                                    "': values must be finite");
      for (std::size_t k = i + 1; k < axis.numbers.size(); ++k)
        if (axis.numbers[i] == axis.numbers[k])
          throw std::invalid_argument(
              "PlanIndexSpec: scenarios axis '" + axis.knob +
              "': duplicate value " + core::format_double(axis.numbers[i]));
    }
  }
  if (!(alpha >= 0.0 && alpha <= 1.0))
    throw std::invalid_argument("PlanIndexSpec: alpha must be in [0, 1]");
  if (!std::isfinite(max_relative_gap) || max_relative_gap < 0.0)
    throw std::invalid_argument(
        "PlanIndexSpec: max_relative_gap must be finite and >= 0");
}

core::Json PlanIndexSpec::to_json() const {
  core::Json j = core::Json::object();
  j.set("schema", kSpecSchema);
  j.set("scenarios", scenarios.to_json());
  j.set("space", space.to_json());
  j.set("alpha", alpha);
  j.set("max_relative_gap", max_relative_gap);
  return j;
}

PlanIndexSpec PlanIndexSpec::from_json(const core::Json& j) {
  if (j.at("schema").as_string() != kSpecSchema)
    throw std::invalid_argument("PlanIndexSpec: unknown schema '" +
                                j.at("schema").as_string() + "'");
  PlanIndexSpec spec;
  spec.scenarios = GridSpec::from_json(j.at("scenarios"));
  spec.space = core::OffloadSearchSpace::from_json(j.at("space"));
  spec.alpha = j.at("alpha").as_double();
  spec.max_relative_gap = j.at("max_relative_gap").as_double();
  spec.validate();
  return spec;
}

OffloadPlanIndex OffloadPlanIndex::build(PlanIndexSpec spec,
                                         const core::XrPerformanceModel& model,
                                         const BatchOptions& options) {
  spec.validate();
  const obs::Span span("plan_index.build");
  OffloadPlanIndex index;
  index.spec_ = std::move(spec);
  const PlanIndexSpec& s = index.spec_;
  const ScenarioGrid grid = s.scenarios.build();
  for (const AxisSpec& axis : s.scenarios.axes)
    index.axis_values_.push_back(axis.numbers);
  index.plans_.resize(grid.size());

  // Slice axes: axis 0, which bounds the tables live at a time to one
  // slice's, and every axis whose knob the search grid sets too (a grid
  // holds a knob once, and the search axis overrides the value in every
  // candidate anyway). A slice applies its slice-axis values to the
  // base; its kernel grid puts the other context axes, in declaration
  // order, ahead of the search axes. The numeric appliers write disjoint
  // fields (edge_count writes the edge set, from the same template with or
  // without the edge the search adds to an edgeless base), so a candidate
  // of that grid is bitwise the candidate of its own cell's search.
  const std::size_t n_axes = grid.axis_count();
  const GridSpec search =
      core::offload_search_request(grid.base(), s.space, s.alpha).grid;
  std::vector<std::size_t> slice_axes, context_axes;
  std::size_t slices = 1, cells_per_slice = 1;
  for (std::size_t k = 0; k < n_axes; ++k) {
    const std::string& knob = s.scenarios.axes[k].knob;
    const bool sliced =
        k == 0 || std::any_of(search.axes.begin(), search.axes.end(),
                              [&](const AxisSpec& a) { return a.knob == knob; });
    (sliced ? slice_axes : context_axes).push_back(k);
    (sliced ? slices : cells_per_slice) *= grid.axis(k).points.size();
  }

  // The BatchOptions convention: 0 the shared pool, 1 serial (a one-thread
  // pool runs inline), N a dedicated pool.
  std::optional<ThreadPool> own_pool;
  if (options.threads != 0) own_pool.emplace(options.threads);
  ThreadPool& pool = own_pool ? *own_pool : ThreadPool::shared();

  const auto cell_request = [&](std::size_t cell) {
    return core::offload_search_request(grid.at(cell), s.space, s.alpha);
  };
  // Sets the coordinates of `over`'s axes to the mixed-radix digits of
  // `i`, last axis fastest.
  std::vector<std::size_t> coords(n_axes, 0);
  const auto decode = [&](std::size_t i, const std::vector<std::size_t>& over) {
    for (std::size_t j = over.size(); j-- > 0;) {
      const std::size_t radix = grid.axis(over[j]).points.size();
      coords[over[j]] = i % radix;
      i /= radix;
    }
  };
  for (std::size_t slice = 0; slice < slices; ++slice) {
    decode(slice, slice_axes);
    core::ScenarioConfig base = grid.base();
    for (const std::size_t k : slice_axes)
      grid.axis(k).points[coords[k]].apply(base);
    GridSpec slice_grid =
        core::offload_search_request(base, s.space, s.alpha).grid;
    std::vector<AxisSpec> front;
    for (const std::size_t k : context_axes)
      front.push_back(s.scenarios.axes[k]);
    slice_grid.axes.insert(slice_grid.axes.begin(), front.begin(),
                           front.end());
    const auto kernel = DecisionBatchKernel::prepare(slice_grid, model);
    if (!kernel)
      throw std::logic_error(
          "OffloadPlanIndex::build: the batch kernel declined an index grid");
    const std::size_t n = kernel->size() / cells_per_slice;

    // Cell j of the slice is the candidate range [j·n, (j+1)·n), folded as
    // the single-shard reduction of the cell's own search request. Only
    // the folds run on the pool, each serially, so no result depends on the
    // thread count. The requests and plans, which allocate, are built on
    // this thread: built on the pool, they spread over per-thread heaps and
    // raised plan_serve's peak RSS by 3%.
    std::vector<std::size_t> cells(cells_per_slice);
    std::vector<shard::PartialReduction> partials;
    partials.reserve(cells_per_slice);
    for (std::size_t j = 0; j < cells_per_slice; ++j) {
      decode(j, context_axes);
      cells[j] = grid.index_of(coords);
      partials.emplace_back(shard::ShardIdentity{
          0, 1, shard::ShardStrategy::kRange, n,
          cell_request(cells[j]).fingerprint()});
    }
    pool.parallel_for(
        cells_per_slice,
        [&](std::size_t j) {
          const std::size_t begin = j * n;
          kernel->fold_range(begin, begin + n,
                             [&](std::size_t first, std::size_t count,
                                 const double* latency, const double* energy) {
                               for (std::size_t i = 0; i < count; ++i)
                                 partials[j].add(first - begin + i,
                                                 latency[i], energy[i]);
                             });
        },
        options.grain);
    for (std::size_t j = 0; j < cells_per_slice; ++j)
      index.plans_[cells[j]] = core::offload_plan_from_summary(
          cell_request(cells[j]), shard::merge_partials({partials[j]}),
          model);
  }
  index.rebuild_lookup();
  PlanIndexMetrics::get().builds.add();
  PlanIndexMetrics::get().cells.set(double(index.plans_.size()));
  return index;
}

void OffloadPlanIndex::rebuild_lookup() {
  exact_.clear();
  exact_.reserve(plans_.size());
  std::vector<double> key(axis_values_.size(), 0.0);
  for (std::size_t cell = 0; cell < plans_.size(); ++cell) {
    std::size_t rest = cell;
    for (std::size_t k = axis_values_.size(); k-- > 0;) {
      key[k] = axis_values_[k][rest % axis_values_[k].size()];
      rest /= axis_values_[k].size();
    }
    exact_.emplace(bitwise_key(key), cell);
  }
}

void OffloadPlanIndex::require_key_arity(
    const std::vector<double>& key) const {
  if (key.size() != axis_values_.size())
    throw std::invalid_argument(
        "OffloadPlanIndex: query has " + std::to_string(key.size()) +
        " values but the index has " + std::to_string(axis_values_.size()) +
        " scenario axes");
  for (std::size_t k = 0; k < key.size(); ++k)
    if (!std::isfinite(key[k]))
      throw std::invalid_argument("OffloadPlanIndex: query axis '" +
                                  spec_.scenarios.axes[k].knob +
                                  "' must be finite");
}

std::optional<std::size_t> OffloadPlanIndex::exact_cell(
    const std::vector<double>& key) const {
  require_key_arity(key);
  const auto it = exact_.find(bitwise_key(key));
  if (it == exact_.end()) return std::nullopt;
  return it->second;
}

OffloadPlanIndex::NearestCell OffloadPlanIndex::nearest_cell(
    const std::vector<double>& key) const {
  require_key_arity(key);
  NearestCell out;
  for (std::size_t k = 0; k < key.size(); ++k) {
    const std::vector<double>& values = axis_values_[k];
    std::size_t best = 0;
    double best_distance = std::abs(key[k] - values[0]);
    for (std::size_t j = 1; j < values.size(); ++j) {
      const double distance = std::abs(key[k] - values[j]);
      if (distance < best_distance) {  // strict: ties keep the lower index
        best = j;
        best_distance = distance;
      }
    }
    const double scale =
        std::max(std::max(std::abs(key[k]), std::abs(values[best])), 1e-9);
    out.worst_gap = std::max(out.worst_gap, best_distance / scale);
    out.cell = out.cell * values.size() + best;
  }
  return out;
}

OffloadPlanIndex::ServeResult OffloadPlanIndex::serve(
    const std::vector<double>& key, const core::XrPerformanceModel& model) {
  if (const auto cell = exact_cell(key)) {
    ++counters_.exact_hits;
    PlanIndexMetrics::get().exact_hits.add();
    return ServeResult{plans_[*cell], PlanSource::kExactHit, *cell};
  }
  const NearestCell nearest = nearest_cell(key);
  if (nearest.worst_gap <= spec_.max_relative_gap) {
    ++counters_.nearest_hits;
    PlanIndexMetrics::get().snap_hits.add();
    return ServeResult{plans_[nearest.cell], PlanSource::kNearestHit,
                       nearest.cell};
  }
  // Genuine miss: materialize the queried scenario through the same axis
  // appliers the grid uses (a one-value axis per knob) and run a fresh
  // search — on the SoA kernel when enabled.
  ++counters_.computed;
  PlanIndexMetrics::get().computed.add();
  const obs::Span span("plan_index.serve_computed");
  core::ScenarioConfig scenario = spec_.scenarios.base_config();
  for (std::size_t k = 0; k < key.size(); ++k) {
    AxisSpec point;
    point.knob = spec_.scenarios.axes[k].knob;
    point.numbers = {key[k]};
    axis_from_spec(point).points.front().apply(scenario);
  }
  auto request = core::offload_search_request(scenario, spec_.space,
                                              spec_.alpha);
  return ServeResult{core::plan_offload(request, model),
                     PlanSource::kComputed, kNoCell};
}

core::Json OffloadPlanIndex::to_json() const {
  core::Json j = core::Json::object();
  j.set("schema", kIndexSchema);
  j.set("spec", spec_.to_json());
  core::Json plans = core::Json::array();
  for (const core::OffloadPlan& plan : plans_) plans.push_back(plan.to_json());
  j.set("plans", std::move(plans));
  return j;
}

OffloadPlanIndex OffloadPlanIndex::from_json(const core::Json& j) {
  if (j.at("schema").as_string() != kIndexSchema)
    throw std::invalid_argument("OffloadPlanIndex: unknown schema '" +
                                j.at("schema").as_string() + "'");
  OffloadPlanIndex index;
  index.spec_ = PlanIndexSpec::from_json(j.at("spec"));
  std::size_t expected = 1;
  for (const AxisSpec& axis : index.spec_.scenarios.axes) {
    index.axis_values_.push_back(axis.numbers);
    expected *= axis.numbers.size();
  }
  for (const core::Json& p : j.at("plans").as_array())
    index.plans_.push_back(core::OffloadPlan::from_json(p));
  if (index.plans_.size() != expected)
    throw std::invalid_argument(
        "OffloadPlanIndex: plans has " + std::to_string(index.plans_.size()) +
        " entries but the scenario grid has " + std::to_string(expected) +
        " cells");
  index.rebuild_lookup();
  return index;
}

}  // namespace xr::runtime
