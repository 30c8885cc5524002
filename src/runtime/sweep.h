// The unified sweep description: serializable grids over any scenario.
//
// Every figure, optimizer search, and capacity study in this repo is "take a
// base ScenarioConfig and vary a few knobs over a grid" (the ω terms of
// Eq. 1, the Fig. 4/5 frame-size × CPU-clock axes, codec operating points,
// edge-server counts). This header captures that pattern once, in layers:
//
//   * AxisSpec   — one typed, serializable axis: a knob id plus its values.
//   * GridSpec   — THE grid description: a base scenario (a factory name or
//                  any inline ScenarioConfig, via core/serialize.h) plus
//                  AxisSpec axes, round-trippable through JSON so worker
//                  processes rebuild the exact grid from a document.
//   * SweepSpec  — a thin builder over GridSpec for C++ call sites; its
//                  named knob methods append AxisSpecs. Raw axis<T>()
//                  closures remain as an explicitly NON-serializable escape
//                  hatch: a spec that uses one cannot become a GridSpec.
//   * ScenarioGrid — the lazy cartesian product both of them build().
//
// Enumeration order matches the equivalent nested loops with the FIRST
// declared axis outermost, so refactored call-sites keep their historical
// iteration order. Axis mutations are applied in declaration order and are
// written to be order-independent where they touch the same field group
// (edge count vs. edge CNN).
//
// Axis specs are validated eagerly (on parse and on append): unknown knob
// ids, duplicate knobs, empty or mixed-type value lists, and invalid values
// (e.g. a fractional edge count) all throw with the offending axis named,
// instead of silently misbuilding the grid.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/jsonio.h"
#include "core/pipeline.h"

namespace xr::runtime {

/// One labelled point on an axis: a mutation of the base scenario.
struct AxisPoint {
  std::string label;
  std::function<void(core::ScenarioConfig&)> apply;
};

/// One named sweep dimension (materialized form).
struct SweepAxis {
  std::string name;
  std::vector<AxisPoint> points;
};

/// One serializable sweep axis: a named knob plus its values. Numeric knobs
/// use `numbers`; placement / CNN-name knobs use `strings`.
///
/// Knobs: "frame_size", "cpu_ghz", "omega_c", "codec_mbps",
/// "throughput_mbps", "edge_count" (numeric); "placement"
/// ("local"/"remote"), "local_cnn", "edge_cnn" (string).
struct AxisSpec {
  std::string knob;
  std::vector<double> numbers;
  std::vector<std::string> strings;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static AxisSpec from_json(const core::Json& j);
};

/// Whether a knob id takes numeric values (false → string values). Throws
/// std::invalid_argument on unknown knob ids.
[[nodiscard]] bool knob_is_numeric(const std::string& knob);

/// Validate an AxisSpec and materialize it (same labels and appliers as the
/// equivalent SweepSpec named-knob call). Throws std::invalid_argument with
/// the axis named on: unknown knob, empty values, both value lists
/// populated, values of the wrong kind for the knob, non-integral or < 1
/// edge counts, unknown placement names.
[[nodiscard]] SweepAxis axis_from_spec(const AxisSpec& spec);

class ScenarioGrid;
class SweepSpec;

/// THE serializable grid description: base scenario + typed knob axes.
///
/// The base is either a factory name ("local"/"remote" instantiated at
/// frame_size/cpu_ghz) or — when `scenario` is engaged — an arbitrary
/// inline ScenarioConfig, so example workloads and optimizer searches
/// shard exactly like the factory sweeps. Axis declaration order is
/// enumeration order (first axis outermost), exactly as SweepSpec.
struct GridSpec {
  std::string factory = "remote";  ///< "local" or "remote" (ignored when
                                   ///< `scenario` is set).
  double frame_size = 500.0;
  double cpu_ghz = 2.0;
  /// Inline base scenario; overrides the factory fields when engaged.
  std::optional<core::ScenarioConfig> scenario;
  std::vector<AxisSpec> axes;

  /// Validate the base name and every axis (see axis_from_spec), including
  /// duplicate knob names across axes. from_json and build both run this.
  void validate() const;

  /// The materialized base scenario (factory or inline).
  [[nodiscard]] core::ScenarioConfig base_config() const;

  /// Materialize the grid; throws std::invalid_argument on invalid specs.
  [[nodiscard]] ScenarioGrid build() const;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static GridSpec from_json(const core::Json& j);
};

/// Builder over GridSpec. Named knob methods and axis_spec() append
/// serializable AxisSpecs; the axis()/axis<T>() closure overloads are the
/// non-serializable escape hatch for mutations the knob vocabulary cannot
/// express (grid_spec() refuses a spec that used one).
class SweepSpec {
 public:
  explicit SweepSpec(core::ScenarioConfig base) : base_(std::move(base)) {}
  /// Start from a serializable spec (base + its typed axes).
  explicit SweepSpec(const GridSpec& spec);

  /// Typed serializable axis. Validates eagerly (see axis_from_spec) and
  /// throws on a knob already declared.
  SweepSpec& axis_spec(AxisSpec spec);

  /// Escape hatch: generic axis from pre-built points. The resulting spec
  /// is no longer serializable. Throws std::invalid_argument on an empty
  /// axis or a duplicate axis name.
  SweepSpec& axis(std::string name, std::vector<AxisPoint> points);

  /// Escape hatch: one setter applied per value, labelled "name=value".
  template <typename T>
  SweepSpec& axis(const std::string& name, const std::vector<T>& values,
                  std::function<void(core::ScenarioConfig&, const T&)> set) {
    std::vector<AxisPoint> points;
    points.reserve(values.size());
    for (const T& v : values) {
      points.push_back(AxisPoint{
          name + "=" + value_label(v),
          [set, v](core::ScenarioConfig& s) { set(s, v); }});
    }
    return axis(name, std::move(points));
  }

  // ---- the paper's deployment knobs (all serializable) ----------------
  /// Frame-size axis with the factory geometry of make_local_scenario /
  /// make_remote_scenario: scene_size = s, converted_size = 0.6 s.
  SweepSpec& frame_sizes(const std::vector<double>& sizes);
  /// f_c axis.
  SweepSpec& cpu_clocks_ghz(const std::vector<double>& clocks);
  /// ω_c axis (CPU share of the device allocation).
  SweepSpec& omega_c(const std::vector<double>& shares);
  /// ω_loc axis. kLocal clears the edge set and keeps the task on-device;
  /// kRemote moves the full task to the edge set (adding one default edge
  /// if the scenario has none).
  SweepSpec& placements(const std::vector<core::InferencePlacement>& p);
  /// On-device CNN axis (local path).
  SweepSpec& local_cnns(const std::vector<std::string>& names);
  /// Edge CNN axis: applies to every edge server (remote path).
  SweepSpec& edge_cnns(const std::vector<std::string>& names);
  /// Parallel edge-server count axis (Eq. 15, even split).
  SweepSpec& edge_counts(const std::vector<int>& counts);
  /// H.264 bitrate axis (remote path).
  SweepSpec& codec_bitrates_mbps(const std::vector<double>& mbps);
  /// Wireless throughput axis r_w.
  SweepSpec& network_throughputs_mbps(const std::vector<double>& mbps);

  /// False once any closure axis was added.
  [[nodiscard]] bool serializable() const noexcept;
  /// The serializable description of this spec (base embedded inline).
  /// Throws std::invalid_argument when a closure axis makes the spec
  /// non-serializable.
  [[nodiscard]] GridSpec grid_spec() const;

  [[nodiscard]] ScenarioGrid build() const;

 private:
  static std::string value_label(double v);
  static std::string value_label(int v);
  static std::string value_label(const std::string& v) { return v; }
  static std::string value_label(core::InferencePlacement p);

  core::ScenarioConfig base_;
  std::vector<SweepAxis> axes_;
  /// Parallel to axes_; disengaged for closure (escape hatch) axes.
  std::vector<std::optional<AxisSpec>> specs_;
};

/// The lazy cartesian product of a sweep's axes over its base scenario.
class ScenarioGrid {
 public:
  ScenarioGrid(core::ScenarioConfig base, std::vector<SweepAxis> axes);

  /// Total number of scenarios (1 when the spec has no axes: just the base).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t axis_count() const noexcept {
    return axes_.size();
  }
  [[nodiscard]] const SweepAxis& axis(std::size_t k) const {
    return axes_.at(k);
  }

  /// Decode a flat index into per-axis point indices (axis 0 slowest).
  [[nodiscard]] std::vector<std::size_t> coords(std::size_t i) const;
  /// Inverse of coords().
  [[nodiscard]] std::size_t index_of(
      const std::vector<std::size_t>& coords) const;

  /// Materialize scenario i: copy the base, apply one point per axis.
  [[nodiscard]] core::ScenarioConfig at(std::size_t i) const;

  /// "axis0=v0, axis1=v1, ..." for scenario i.
  [[nodiscard]] std::string label(std::size_t i) const;

  [[nodiscard]] const core::ScenarioConfig& base() const noexcept {
    return base_;
  }

  /// Prefix-snapshot cursor: materializes scenarios by coordinates, keeping
  /// the scenario after each axis prefix 0..k of the last point it built.
  /// Moving to new coordinates copy-assigns the kept prefix in front of the
  /// first changed axis and re-applies the grid's own appliers from there
  /// on. Each result is bitwise at(index_of(coords)): the same appliers run
  /// in the same order on an equal scenario value. Walks that change the
  /// fast axes pay for those axes only. The grid must outlive the cursor.
  class Cursor {
   public:
    explicit Cursor(const ScenarioGrid& grid);

    /// The scenario at `coords` (one point index per axis), valid until the
    /// next call. Throws like index_of on a rank or range mismatch.
    const core::ScenarioConfig& at(const std::vector<std::size_t>& coords);

   private:
    const ScenarioGrid& grid_;
    std::vector<std::size_t> coords_;  ///< coordinates of the kept prefixes.
    std::vector<core::ScenarioConfig> prefix_;  ///< after axes 0..k.
    std::size_t valid_ = 0;  ///< leading prefixes that match coords_.
  };

 private:
  core::ScenarioConfig base_;
  std::vector<SweepAxis> axes_;
  std::size_t size_ = 1;
};

}  // namespace xr::runtime
