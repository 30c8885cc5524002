// Exposition layer: obs state as a serializable document.
//
// ObsDocument bundles a merged registry Snapshot with an optional span
// Trace under the "xr.obs.snapshot.v1" schema. Everything downstream —
// the --metrics-out flag on sweep_worker/sweep_merge/plan_index, the
// benches' BENCH_*.json files, tools/obs_dump — speaks this one document.
//
// from_json is the strict inverse of to_json (unknown fields throw, the
// same named-field rejection style as plan_index), and doubles round-trip
// bitwise through core::Json, so dump → parse → dump is byte-identical.
//
// This header compiles identically in XR_OBS_DISABLED builds: the
// document type is plain data; a disabled build just captures empty ones.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/jsonio.h"
#include "obs/registry.h"
#include "obs/span.h"

namespace xr::obs {

struct ObsDocument {
  /// Optional provenance tag ("bench" in JSON); benches set it to their
  /// bench name.
  std::string label;
  Snapshot metrics;
  std::optional<Trace> trace;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static ObsDocument from_json(const core::Json& j);

  /// Human-readable exposition (Prometheus-flavored text, one sample per
  /// line; histogram buckets as `name{le="…"}` rows plus sum/count).
  [[nodiscard]] std::string to_text() const;
};

/// Capture the global registry (and, when asked, the span ring) now.
[[nodiscard]] ObsDocument capture(bool include_trace = true);

/// capture(...).to_json().dump() — the one-call JSON exposition.
[[nodiscard]] std::string snapshot_json(bool include_trace = true);

/// Capture and write a single-line JSON document to `path` (plus a
/// trailing newline). Throws std::runtime_error when the file cannot be
/// written. Backs every tool's --metrics-out flag.
void write_snapshot_file(const std::string& path, bool include_trace = true);

/// Write an already-assembled document (e.g. the sweep coordinator's
/// aggregated, worker-labeled snapshot) instead of capturing the global
/// registry. Same file shape as write_snapshot_file.
void write_document_file(const ObsDocument& doc, const std::string& path);

/// Rewrite every metric name in `s` to carry one Prometheus-style label:
/// "shard.worker.chunks" -> "shard.worker.chunks{worker=\"w0\"}". Names
/// stay unique (the label value differs per source) and each section is
/// re-sorted, so the result is still a valid Snapshot.
[[nodiscard]] Snapshot label_snapshot(Snapshot s, const std::string& key,
                                      const std::string& value);

/// One aggregated service document: the local (coordinator) snapshot
/// unlabeled plus each worker's metrics under a `label_key` label
/// dimension, merged name-sorted. Worker traces are dropped — only the
/// local trace (if any) is carried; a metric name that would collide
/// after labeling (same worker listed twice) throws.
[[nodiscard]] ObsDocument aggregate_labeled(
    const ObsDocument& local,
    const std::vector<std::pair<std::string, ObsDocument>>& workers,
    const std::string& label_key = "worker");

}  // namespace xr::obs
