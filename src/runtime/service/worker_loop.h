// The lease-driven worker state machine behind `sweep_worker --serve`.
//
// A serving worker registers with the coordinator, then loops: poll the
// mailbox, step the active lease one slice at a time, heartbeat at most
// once per heartbeat_ms, and send lease_complete when the shard's record
// stream is done. Each lease holds one shard::ShardRun: the first slice
// opens it (one scan of the stem, where a copied-forward attempt may
// sit) and every slice steps it, so a slice costs only its own records.
// Every slice ends on a flushed chunk, which is what makes a serving
// worker both killable (a SIGKILL lands between or inside a slice; either
// way the stem holds a valid prefix the reassigned attempt resumes
// byte-identically) and revocable (a revoke or shutdown is seen at the
// next slice boundary, never mid-record).
//
// Churn protocol:
//   * grant      -> fetch + cache the request document (bounded re-fetch:
//                   a corrupt, truncated, or fingerprint-mismatched board
//                   blob is a NAMED lease_failed, never an evaluation of
//                   the wrong grid), copy the previous attempt's stem
//                   forward when this is a reassignment, then open the
//                   shard with resume always on and slice through it;
//   * revoke     -> abandon the active lease (the coordinator has already
//                   reassigned it) and re-register to rejoin the pool;
//   * shutdown   -> send the final obs snapshot + deregister, exit.
//
// `max_slices` is the deterministic churn-injection hook the gate script
// uses: after that many work slices the loop returns immediately —
// no deregister, no goodbye — indistinguishable from a kill -9 to the
// coordinator, whose lease expiry must then reassign the shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "runtime/service/transport.h"

namespace xr::runtime::service {

struct WorkerLoopOptions {
  /// Mailbox name; must be unique per live worker ([A-Za-z0-9._-]).
  std::string name;
  /// Records evaluated per slice between mailbox polls, rounded up per
  /// lease to the request's chunk (record streams resume only
  /// on chunk boundaries). Keep slice wall time well under the
  /// coordinator's lease timeout.
  std::size_t slice_records = 32;
  /// Heartbeat period, idle or leased: after a slice the worker sends one
  /// only when this long has passed since the last. Must stay well below
  /// the coordinator's lease_timeout_ms, or leases expire while their
  /// holders are working.
  std::uint64_t heartbeat_ms = 200;
  std::uint64_t poll_ms = 25;
  /// Exit (without deregistering) when idle this long with no coordinator
  /// contact; 0 = wait for shutdown forever.
  std::uint64_t idle_timeout_ms = 0;
  /// Test hook: simulate a crash by returning (holding a lease, silently)
  /// after this many work slices. 0 = never.
  std::size_t max_slices = 0;
  /// Test hook: sleep this long after every work slice, stretching a
  /// lease's wall time so an external kill (or lease expiry) can land
  /// mid-shard deterministically even when evaluation is instant. 0 =
  /// full speed.
  std::uint64_t slice_delay_ms = 0;
};

struct WorkerLoopOutcome {
  std::size_t leases_completed = 0;
  std::size_t records_evaluated = 0;
  std::size_t slices = 0;
  /// Times a failed slice was repaired locally by wiping the attempt stem
  /// and re-running fresh (once per lease, before reporting lease_failed).
  std::size_t fresh_restarts = 0;
  bool shutdown = false;  ///< exited on the coordinator's shutdown.
  bool crashed = false;   ///< the max_slices churn hook tripped.
  bool idle_timeout = false;
};

/// Run the serving loop until shutdown (or a hook/timeout). Throws on
/// invalid options; lease execution errors are reported to the
/// coordinator as lease_failed, never thrown — and coordinator-bound
/// sends are best-effort (a lost message degrades to lease expiry, which
/// the protocol already absorbs).
[[nodiscard]] WorkerLoopOutcome run_service_worker(
    Transport& transport, const WorkerLoopOptions& options);

}  // namespace xr::runtime::service
