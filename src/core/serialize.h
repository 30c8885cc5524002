// Exact JSON codecs for the core value types.
//
// ScenarioConfig round-trips *fully*: every field of every nested config,
// doubles in shortest round-trip form (core/jsonio.h), so a scenario can be
// embedded verbatim in a serializable sweep document and a worker process
// rebuilds bit-for-bit the scenario the author described. This is what lets
// a grid's base be *any* scenario — the example workloads included — not
// just the "local"/"remote" factory strings.
//
// PerformanceReport uses the same codec rules; it is the payload of the
// shard layer's dumped records and of serialized OffloadPlan summaries, and
// the round trip preserves every breakdown field bitwise.
#pragma once

#include <vector>

#include "core/framework.h"
#include "core/jsonio.h"
#include "core/pipeline.h"

namespace xr::core {

/// Serialize a scenario; scenario_from_json(to_json(s)) reproduces `s`
/// exactly (bitwise on every double).
[[nodiscard]] Json to_json(const ScenarioConfig& s);
/// Inverse of to_json. Missing members throw std::invalid_argument — a
/// scenario document is complete, not a patch.
[[nodiscard]] ScenarioConfig scenario_from_json(const Json& j);

/// Serialize a full performance report (latency + energy breakdowns and the
/// per-sensor AoI summaries), bitwise round-trippable.
[[nodiscard]] Json to_json(const PerformanceReport& report);
[[nodiscard]] PerformanceReport report_from_json(const Json& j);

/// Breakdown-level codecs — the report codec is built from these, and the
/// shard layer's record_line writes them directly (one line per grid
/// point; no intermediate report document to copy from).
[[nodiscard]] Json to_json(const LatencyBreakdown& l);
[[nodiscard]] LatencyBreakdown latency_breakdown_from_json(const Json& j);
[[nodiscard]] Json to_json(const EnergyBreakdown& e);
[[nodiscard]] EnergyBreakdown energy_breakdown_from_json(const Json& j);
[[nodiscard]] Json to_json(const std::vector<SensorReport>& sensors);
[[nodiscard]] std::vector<SensorReport> sensors_from_json(const Json& j);

/// Serialize a codec operating point (the Eq. 10 regressors), bitwise
/// round-trippable; also embedded in scenario and offload-plan documents.
[[nodiscard]] Json to_json(const devices::H264Config& codec);
[[nodiscard]] devices::H264Config h264_from_json(const Json& j);

}  // namespace xr::core
