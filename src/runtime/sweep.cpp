#include "runtime/sweep.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/framework.h"
#include "core/serialize.h"

namespace xr::runtime {

namespace {

core::EdgeConfig edge_template(const core::ScenarioConfig& s) {
  return s.inference.edges.empty() ? core::EdgeConfig{}
                                   : s.inference.edges.front();
}

void set_edge_count(core::ScenarioConfig& s, int count) {
  if (count < 1)
    throw std::invalid_argument("SweepSpec: edge count must be >= 1");
  const core::EdgeConfig tmpl = edge_template(s);
  s.inference.edges.assign(std::size_t(count), tmpl);
  for (std::size_t e = 0; e < s.inference.edges.size(); ++e) {
    s.inference.edges[e].omega_edge = 1.0 / double(count);
    s.inference.edges[e].name = "edge-" + std::to_string(e);
  }
}

[[noreturn]] void axis_error(const AxisSpec& spec, const std::string& what) {
  throw std::invalid_argument("axis '" + spec.knob + "': " + what);
}

std::string number_label(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Points for a numeric knob: label "knob=value", one setter per value.
SweepAxis numeric_axis(const AxisSpec& spec,
                       void (*set)(core::ScenarioConfig&, double)) {
  SweepAxis axis{spec.knob, {}};
  axis.points.reserve(spec.numbers.size());
  for (double v : spec.numbers)
    axis.points.push_back(AxisPoint{
        spec.knob + "=" + number_label(v),
        [set, v](core::ScenarioConfig& s) { set(s, v); }});
  return axis;
}

/// Points for a string knob.
SweepAxis string_axis(const AxisSpec& spec,
                      void (*set)(core::ScenarioConfig&,
                                  const std::string&)) {
  SweepAxis axis{spec.knob, {}};
  axis.points.reserve(spec.strings.size());
  for (const std::string& v : spec.strings)
    axis.points.push_back(AxisPoint{
        spec.knob + "=" + v,
        [set, v](core::ScenarioConfig& s) { set(s, v); }});
  return axis;
}

void apply_placement(core::ScenarioConfig& s, core::InferencePlacement p) {
  s.inference.placement = p;
  if (p == core::InferencePlacement::kLocal) {
    s.inference.omega_client = 1.0;
    s.inference.edges.clear();
  } else {
    s.inference.omega_client = 0.0;
    if (s.inference.edges.empty()) set_edge_count(s, 1);
  }
}

}  // namespace

bool knob_is_numeric(const std::string& knob) {
  if (knob == "frame_size" || knob == "cpu_ghz" || knob == "omega_c" ||
      knob == "codec_mbps" || knob == "throughput_mbps" ||
      knob == "edge_count")
    return true;
  if (knob == "placement" || knob == "local_cnn" || knob == "edge_cnn")
    return false;
  throw std::invalid_argument(
      "axis '" + knob +
      "': unknown knob (known: frame_size, cpu_ghz, omega_c, codec_mbps, "
      "throughput_mbps, edge_count, placement, local_cnn, edge_cnn)");
}

SweepAxis axis_from_spec(const AxisSpec& spec) {
  if (!spec.numbers.empty() && !spec.strings.empty())
    axis_error(spec, "has both numeric and string values");
  const bool numeric = knob_is_numeric(spec.knob);
  if (numeric && spec.numbers.empty())
    axis_error(spec, spec.strings.empty()
                         ? "has no values"
                         : "takes numeric values, got strings");
  if (!numeric && spec.strings.empty())
    axis_error(spec, spec.numbers.empty()
                         ? "has no values"
                         : "takes string values, got numbers");

  if (spec.knob == "frame_size")
    return numeric_axis(spec, [](core::ScenarioConfig& s, double size) {
      s.frame.frame_size = size;
      s.frame.scene_size = size;
      s.frame.converted_size = size * 0.6;
    });
  if (spec.knob == "cpu_ghz")
    return numeric_axis(spec, [](core::ScenarioConfig& s, double ghz) {
      s.client.cpu_ghz = ghz;
    });
  if (spec.knob == "omega_c")
    return numeric_axis(spec, [](core::ScenarioConfig& s, double wc) {
      s.client.omega_c = wc;
    });
  if (spec.knob == "codec_mbps")
    return numeric_axis(spec, [](core::ScenarioConfig& s, double rate) {
      s.codec.bitrate_mbps = rate;
    });
  if (spec.knob == "throughput_mbps")
    return numeric_axis(spec, [](core::ScenarioConfig& s, double rate) {
      s.network.throughput_mbps = rate;
    });
  if (spec.knob == "edge_count") {
    SweepAxis axis{spec.knob, {}};
    axis.points.reserve(spec.numbers.size());
    for (double v : spec.numbers) {
      if (v < 1.0 || v != std::floor(v))
        axis_error(spec, "edge counts must be integers >= 1 (got " +
                             number_label(v) + ")");
      const int count = int(v);
      axis.points.push_back(AxisPoint{
          spec.knob + "=" + std::to_string(count),
          [count](core::ScenarioConfig& s) { set_edge_count(s, count); }});
    }
    return axis;
  }
  if (spec.knob == "placement") {
    SweepAxis axis{spec.knob, {}};
    axis.points.reserve(spec.strings.size());
    for (const std::string& v : spec.strings) {
      core::InferencePlacement p;
      try {
        p = core::placement_from_name(v);
      } catch (const std::invalid_argument& e) {
        axis_error(spec, e.what());
      }
      axis.points.push_back(AxisPoint{
          spec.knob + "=" + v,
          [p](core::ScenarioConfig& s) { apply_placement(s, p); }});
    }
    return axis;
  }
  if (spec.knob == "local_cnn")
    return string_axis(spec,
                       [](core::ScenarioConfig& s, const std::string& n) {
                         s.inference.local_cnn_name = n;
                       });
  // knob_is_numeric already rejected unknown names; only edge_cnn is left.
  return string_axis(spec, [](core::ScenarioConfig& s, const std::string& n) {
    for (auto& e : s.inference.edges) e.cnn_name = n;
  });
}

// ---- AxisSpec JSON ------------------------------------------------------

core::Json AxisSpec::to_json() const {
  core::Json a = core::Json::object();
  a.set("knob", knob);
  core::Json values = core::Json::array();
  if (!strings.empty())
    for (const auto& s : strings) values.push_back(core::Json(s));
  else
    for (double v : numbers) values.push_back(core::Json(v));
  a.set("values", std::move(values));
  return a;
}

AxisSpec AxisSpec::from_json(const core::Json& j) {
  core::walk_strict(j, "grid axis", [](const std::string& key, const auto&) {
    return key == "knob" || key == "values";
  });
  AxisSpec axis;
  axis.knob = j.at("knob").as_string();
  for (const core::Json& v : j.at("values").as_array()) {
    if (v.is_string())
      axis.strings.push_back(v.as_string());
    else
      axis.numbers.push_back(v.as_double());
  }
  if (!axis.strings.empty() && !axis.numbers.empty())
    axis_error(axis, "mixes string and numeric values");
  return axis;
}

// ---- GridSpec -----------------------------------------------------------

void GridSpec::validate() const {
  (void)base_config();
  for (std::size_t i = 0; i < axes.size(); ++i) {
    (void)axis_from_spec(axes[i]);
    for (std::size_t k = 0; k < i; ++k)
      if (axes[k].knob == axes[i].knob)
        throw std::invalid_argument("axis '" + axes[i].knob +
                                    "': duplicate knob across axes");
  }
}

core::ScenarioConfig GridSpec::base_config() const {
  if (scenario) return *scenario;
  if (factory == "local")
    return core::make_local_scenario(frame_size, cpu_ghz);
  if (factory == "remote")
    return core::make_remote_scenario(frame_size, cpu_ghz);
  throw std::invalid_argument("GridSpec: unknown base '" + factory +
                              "' (expected 'local' or 'remote')");
}

ScenarioGrid GridSpec::build() const {
  // SweepSpec's constructor re-runs every check validate() makes (base
  // name, per-axis validation, duplicate knobs), so no separate pass.
  return SweepSpec(*this).build();
}

core::Json GridSpec::to_json() const {
  core::Json b = core::Json::object();
  if (scenario) {
    b.set("scenario", core::to_json(*scenario));
  } else {
    b.set("scenario", factory);
    b.set("frame_size", frame_size);
    b.set("cpu_ghz", cpu_ghz);
  }

  core::Json ax = core::Json::array();
  for (const auto& axis : axes) ax.push_back(axis.to_json());

  core::Json out = core::Json::object();
  out.set("base", std::move(b));
  out.set("axes", std::move(ax));
  return out;
}

GridSpec GridSpec::from_json(const core::Json& j) {
  core::walk_strict(j, "grid", [](const std::string& key, const auto&) {
    return key == "base" || key == "axes";
  });
  GridSpec out;
  const core::Json& base = j.at("base");
  core::walk_strict(base, "grid.base", [](const std::string& key,
                                          const auto&) {
    return key == "scenario" || key == "frame_size" || key == "cpu_ghz";
  });
  const core::Json& which = base.at("scenario");
  if (which.is_string()) {
    out.factory = which.as_string();
    out.frame_size = base.at("frame_size").as_double();
    out.cpu_ghz = base.at("cpu_ghz").as_double();
  } else {
    out.scenario = core::scenario_from_json(which);
  }
  for (const core::Json& a : j.at("axes").as_array())
    out.axes.push_back(AxisSpec::from_json(a));
  out.validate();
  return out;
}

// ---- SweepSpec ----------------------------------------------------------

SweepSpec::SweepSpec(const GridSpec& spec) : base_(spec.base_config()) {
  for (const auto& a : spec.axes) axis_spec(a);
}

std::string SweepSpec::value_label(double v) { return number_label(v); }

std::string SweepSpec::value_label(int v) { return std::to_string(v); }

std::string SweepSpec::value_label(core::InferencePlacement p) {
  return core::placement_name(p);
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<AxisPoint> points) {
  if (points.empty())
    throw std::invalid_argument("SweepSpec: axis '" + name + "' is empty");
  for (const auto& existing : axes_)
    if (existing.name == name)
      throw std::invalid_argument("SweepSpec: duplicate axis '" + name + "'");
  axes_.push_back(SweepAxis{std::move(name), std::move(points)});
  specs_.push_back(std::nullopt);  // closure axes are not serializable
  return *this;
}

SweepSpec& SweepSpec::axis_spec(AxisSpec spec) {
  SweepAxis built = axis_from_spec(spec);  // eager validation
  for (const auto& existing : axes_)
    if (existing.name == built.name)
      throw std::invalid_argument("SweepSpec: duplicate axis '" + built.name +
                                  "'");
  axes_.push_back(std::move(built));
  specs_.push_back(std::move(spec));
  return *this;
}

SweepSpec& SweepSpec::frame_sizes(const std::vector<double>& sizes) {
  AxisSpec a;
  a.knob = "frame_size";
  a.numbers = sizes;
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::cpu_clocks_ghz(const std::vector<double>& clocks) {
  AxisSpec a;
  a.knob = "cpu_ghz";
  a.numbers = clocks;
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::omega_c(const std::vector<double>& shares) {
  AxisSpec a;
  a.knob = "omega_c";
  a.numbers = shares;
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::placements(
    const std::vector<core::InferencePlacement>& p) {
  AxisSpec a;
  a.knob = "placement";
  a.strings.reserve(p.size());
  for (core::InferencePlacement placement : p)
    a.strings.push_back(value_label(placement));
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::local_cnns(const std::vector<std::string>& names) {
  AxisSpec a;
  a.knob = "local_cnn";
  a.strings = names;
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::edge_cnns(const std::vector<std::string>& names) {
  AxisSpec a;
  a.knob = "edge_cnn";
  a.strings = names;
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::edge_counts(const std::vector<int>& counts) {
  AxisSpec a;
  a.knob = "edge_count";
  a.numbers.reserve(counts.size());
  for (int c : counts) a.numbers.push_back(double(c));
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::codec_bitrates_mbps(const std::vector<double>& mbps) {
  AxisSpec a;
  a.knob = "codec_mbps";
  a.numbers = mbps;
  return axis_spec(std::move(a));
}

SweepSpec& SweepSpec::network_throughputs_mbps(
    const std::vector<double>& mbps) {
  AxisSpec a;
  a.knob = "throughput_mbps";
  a.numbers = mbps;
  return axis_spec(std::move(a));
}

bool SweepSpec::serializable() const noexcept {
  for (const auto& s : specs_)
    if (!s) return false;
  return true;
}

GridSpec SweepSpec::grid_spec() const {
  GridSpec out;
  out.scenario = base_;
  out.axes.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!specs_[i])
      throw std::invalid_argument(
          "SweepSpec: axis '" + axes_[i].name +
          "' is a closure axis (the non-serializable escape hatch); it "
          "cannot be expressed as a GridSpec");
    out.axes.push_back(*specs_[i]);
  }
  return out;
}

ScenarioGrid SweepSpec::build() const { return ScenarioGrid(base_, axes_); }

ScenarioGrid::ScenarioGrid(core::ScenarioConfig base,
                           std::vector<SweepAxis> axes)
    : base_(std::move(base)), axes_(std::move(axes)) {
  for (const auto& a : axes_) size_ *= a.points.size();
}

std::vector<std::size_t> ScenarioGrid::coords(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ScenarioGrid: index out of range");
  std::vector<std::size_t> c(axes_.size(), 0);
  // Mixed-radix decode, last axis fastest (axis 0 is the outermost loop).
  for (std::size_t k = axes_.size(); k-- > 0;) {
    const std::size_t radix = axes_[k].points.size();
    c[k] = i % radix;
    i /= radix;
  }
  return c;
}

std::size_t ScenarioGrid::index_of(
    const std::vector<std::size_t>& coords) const {
  if (coords.size() != axes_.size())
    throw std::invalid_argument("ScenarioGrid: coords rank mismatch");
  std::size_t i = 0;
  for (std::size_t k = 0; k < axes_.size(); ++k) {
    if (coords[k] >= axes_[k].points.size())
      throw std::out_of_range("ScenarioGrid: coord out of range");
    i = i * axes_[k].points.size() + coords[k];
  }
  return i;
}

core::ScenarioConfig ScenarioGrid::at(std::size_t i) const {
  const auto c = coords(i);
  core::ScenarioConfig s = base_;
  for (std::size_t k = 0; k < axes_.size(); ++k)
    axes_[k].points[c[k]].apply(s);
  return s;
}

ScenarioGrid::Cursor::Cursor(const ScenarioGrid& grid)
    : grid_(grid),
      coords_(grid.axis_count(), 0),
      prefix_(grid.axis_count()) {}

const core::ScenarioConfig& ScenarioGrid::Cursor::at(
    const std::vector<std::size_t>& coords) {
  (void)grid_.index_of(coords);  // rank and range checks
  const std::size_t n = grid_.axes_.size();
  if (n == 0) return grid_.base_;
  std::size_t k = 0;
  while (k < valid_ && coords[k] == coords_[k]) ++k;
  // Mark the suffix stale first, so an applier that throws leaves the
  // cursor consistent.
  valid_ = k;
  for (; k < n; ++k) {
    prefix_[k] = k ? prefix_[k - 1] : grid_.base_;
    grid_.axes_[k].points[coords[k]].apply(prefix_[k]);
    coords_[k] = coords[k];
    valid_ = k + 1;
  }
  return prefix_[n - 1];
}

std::string ScenarioGrid::label(std::size_t i) const {
  const auto c = coords(i);
  std::string out;
  for (std::size_t k = 0; k < axes_.size(); ++k) {
    if (k) out += ", ";
    out += axes_[k].points[c[k]].label;
  }
  return out;
}

}  // namespace xr::runtime
