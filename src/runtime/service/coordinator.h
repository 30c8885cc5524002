// The sweep coordinator: owns one SweepRequest, leases its shards to an
// elastic worker pool, and streaming-merges the results.
//
// The headline invariant (the scripts.sweep_service churn gate): workers
// joining, dying, or leaving mid-sweep never change a byte of the merged
// output. It follows from three established laws plus one new rule:
//
//   * the partition is FIXED up front — options.shards leases over a
//     range ShardPlan, independent of how many workers ever register, so
//     each shard's record stream is the same stream a static K-shard run
//     writes;
//   * re-execution is resume — an expired lease's next attempt copies the
//     dead attempt's stem forward and resumes from its longest valid
//     prefix, and the stream's resume law makes that
//     byte-identical to an uninterrupted run;
//   * merging is the PR 2 merge law — each completed shard folds through
//     partial_from_records (the .xrb stream's column fold) the moment
//     its lease_complete arrives,
//     and merge_partials over the K folds equals the monolithic
//     run_request bitwise;
//   * attempt-numbered stems (shard<k>.a<n>) keep a revoked-but-alive
//     straggler from ever writing the stream a reassigned attempt reads.
//
// Liveness: workers heartbeat while holding a lease; a missed deadline
// expires the lease (service.lease.reassigned), sends the presumed-dead
// holder a revoke (a live straggler abandons and re-registers), and
// returns the shard to the pending queue. A shard that burns
// max_attempts assignments aborts the sweep with a named error — or,
// under allow_partial, is quarantined and reported in the
// "xr.service.partial.v1" document while the completed shards still merge.
//
// Fault hardening (the scripts.sweep_service_chaos gate): a completed
// shard is folded BEFORE its lease flips to done, with bounded retries
// for transient read errors — a persistently unusable stream fails the
// attempt and reassigns, never aborts. Lost wire messages are absorbed:
// an idle heartbeat from an unknown (or presumed-dead) worker re-adopts
// it, and revoke/shutdown/grant sends are best-effort (a failed grant
// returns the shard to the queue immediately).
//
// Telemetry: workers attach their "xr.obs.snapshot.v1" document at
// shutdown, to both the snapshot message and the deregister (one lost
// message cannot lose it); the coordinator exposes ONE aggregated
// snapshot — its own metrics unlabeled plus every worker's under a
// worker="name" label (obs::aggregate_labeled) — through
// CoordinatorResult / --metrics-out. The shutdown goes to every worker
// seen, presumed-dead ones included, so a live straggler never idles on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/jsonio.h"
#include "core/optimizer.h"
#include "obs/snapshot.h"
#include "runtime/service/lease.h"
#include "runtime/service/transport.h"
#include "runtime/shard/merge.h"
#include "runtime/sweep_request.h"

namespace xr::runtime::service {

struct CoordinatorOptions {
  /// The fixed shard partition (this IS the merged summary's shard_count;
  /// worker churn never changes it).
  std::size_t shards = 4;
  /// Directory for per-shard output stems (created on demand).
  std::string shard_dir;
  /// A lease expires when its holder misses heartbeats this long.
  std::uint64_t lease_timeout_ms = 3000;
  /// Event-loop poll cadence.
  std::uint64_t poll_ms = 25;
  /// A shard that burns this many assignments aborts the sweep — or is
  /// quarantined instead when allow_partial is set.
  std::size_t max_attempts = 16;
  /// How long to wait after broadcasting shutdown for worker snapshots
  /// and goodbyes.
  std::uint64_t shutdown_grace_ms = 2000;
  /// Bounded retries of a completed shard's fold (partial_from_records):
  /// a transient read error must not burn the attempt, let alone the
  /// sweep. Persistent fold failure fails the attempt -> reassignment.
  std::size_t fold_retries = 3;
  /// Graceful degradation: instead of aborting when a shard exhausts
  /// max_attempts, quarantine it, merge what completed, and emit the
  /// "xr.service.partial.v1" document (CoordinatorResult::partial_document).
  bool allow_partial = false;
};

/// Schema tag of the graceful-degradation document emitted when shards
/// were quarantined: the quarantined ids (with attempt counts and last
/// errors), the completed ids, and the merged summary of the completed
/// subset.
inline constexpr const char* kPartialDocumentSchema = "xr.service.partial.v1";

struct CoordinatorResult {
  /// The full merge — or, when shards were quarantined (allow_partial),
  /// the merge of the completed subset (summary.evaluated < grid_size).
  shard::MergedSummary summary;
  /// Engaged when the request's reduction is offload_plan — never for a
  /// partial sweep (a plan argmin over a subset would be silently wrong).
  std::optional<core::OffloadPlan> plan;
  /// The aggregated, worker-labeled service snapshot.
  obs::ObsDocument metrics;
  std::size_t workers_seen = 0;
  std::size_t leases_reassigned = 0;
  /// Shards parked after exhausting max_attempts (allow_partial only).
  std::vector<std::size_t> quarantined;
  /// The "xr.service.partial.v1" document; engaged iff quarantined is
  /// non-empty.
  std::optional<core::Json> partial_document;
};

/// Run one sweep to completion over whatever workers show up. Publishes
/// the request document on the transport's blob board, grants/expires/
/// reassigns leases, folds each completed shard as it lands, broadcasts
/// shutdown, and returns the merged result. Blocking; throws on invalid
/// requests (adaptive requests are not lease-schedulable yet), exhausted
/// shard attempts, and unrecoverable transport failure.
[[nodiscard]] CoordinatorResult run_coordinator(Transport& transport,
                                                const SweepRequest& request,
                                                const CoordinatorOptions& options);

}  // namespace xr::runtime::service
