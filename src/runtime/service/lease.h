// Shard lease table — who owns which slice of the sweep, and until when.
//
// The coordinator fixes the partition up front (shard_count leases over a
// ShardPlan, independent of how many workers ever show up — that fixedness
// is what makes the merged output byte-stable under churn) and hands each
// lease to at most one worker at a time. A lease is a deadline-bearing
// claim: the holder must heartbeat before the deadline or the lease
// returns to the pending queue with its attempt counter bumped, ready for
// reassignment — the record stream's resume law makes the re-execution
// byte-identical, so expiry is always safe, merely wasteful.
//
// The table is deliberately clock-free: every method takes `now_ms` from
// the caller (the coordinator's steady clock), so lease semantics — grant,
// extend, expire, reassign, complete, stale-message rejection — are unit
// testable without sleeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace xr::runtime::service {

enum class LeaseState { kPending, kActive, kDone, kQuarantined };

struct LeaseInfo {
  LeaseState state = LeaseState::kPending;
  std::string holder;            ///< current worker ("" when pending/never).
  std::size_t attempt = 0;       ///< last granted generation (0 = first).
  bool ever_assigned = false;    ///< false until the first assign().
  std::uint64_t deadline_ms = 0; ///< heartbeat deadline while active.
  std::size_t records_done = 0;  ///< last reported progress.
};

/// A grant handed to a worker: shard `lease`, generation `attempt`;
/// `previous_attempt` is engaged when this is a reassignment (the worker
/// resumes from that attempt's output stem).
struct LeaseAssignment {
  std::size_t lease = 0;
  std::size_t attempt = 0;
  std::optional<std::size_t> previous_attempt;
};

/// An expired lease: who held it (for the revoke message) and which
/// attempt just died.
struct LeaseExpiry {
  std::size_t lease = 0;
  std::string holder;
  std::size_t attempt = 0;
};

class LeaseTable {
 public:
  /// `shard_count` leases, each expiring timeout_ms after its last
  /// heartbeat. A lease whose attempt counter would exceed max_attempts
  /// makes assign() throw (named) — the sweep is aborted rather than
  /// ground forever against a poisoned shard — unless
  /// `quarantine_exhausted` is set, in which case the lease is parked in
  /// kQuarantined instead and the sweep degrades gracefully (the
  /// coordinator's "xr.service.partial.v1" document).
  LeaseTable(std::size_t shard_count, std::uint64_t timeout_ms,
             std::size_t max_attempts = 16, bool quarantine_exhausted = false);

  /// Assign the lowest pending lease to `worker`; nullopt when none is
  /// pending. A lease that has already burned max_attempts assignments
  /// throws std::runtime_error — or is quarantined and skipped when the
  /// table was built with quarantine_exhausted.
  [[nodiscard]] std::optional<LeaseAssignment> assign(
      const std::string& worker, std::uint64_t now_ms);

  /// True iff `worker` currently holds (lease, attempt) active — the
  /// const precondition of complete()/fail(), checkable before deciding
  /// which one to call.
  [[nodiscard]] bool holds(const std::string& worker, std::size_t lease,
                           std::size_t attempt) const;

  /// Extend the deadline of (lease, attempt) iff `worker` is its current
  /// holder and the attempt matches; returns false (stale) otherwise.
  bool heartbeat(const std::string& worker, std::size_t lease,
                 std::size_t attempt, std::size_t records_done,
                 std::uint64_t now_ms);

  /// Mark (lease, attempt) done iff `worker` currently holds it; a stale
  /// completion (reassigned lease, wrong attempt) returns false and
  /// changes nothing.
  bool complete(const std::string& worker, std::size_t lease,
                std::size_t attempt);

  /// Return (lease, attempt) to the pending queue after a worker-reported
  /// failure; stale reports return false.
  bool fail(const std::string& worker, std::size_t lease, std::size_t attempt);

  /// Collect every active lease whose deadline has passed; each returns to
  /// the pending queue with attempt+1 reserved for the next assign.
  [[nodiscard]] std::vector<LeaseExpiry> expire(std::uint64_t now_ms);

  /// Release every active lease held by `worker` (clean deregistration);
  /// returns the lease ids released.
  std::vector<std::size_t> release_worker(const std::string& worker);

  [[nodiscard]] std::size_t size() const noexcept { return leases_.size(); }
  [[nodiscard]] std::size_t done_count() const noexcept { return done_; }
  [[nodiscard]] bool all_done() const noexcept {
    return done_ == leases_.size();
  }
  /// Shards parked by attempt exhaustion (quarantine mode only), ascending.
  [[nodiscard]] std::vector<std::size_t> quarantined_ids() const;
  [[nodiscard]] std::size_t quarantined_count() const noexcept {
    return quarantined_;
  }
  /// Nothing left to schedule: every lease is done or quarantined. Equals
  /// all_done() outside quarantine mode.
  [[nodiscard]] bool finished() const noexcept {
    return done_ + quarantined_ == leases_.size();
  }
  [[nodiscard]] const LeaseInfo& info(std::size_t lease) const;

 private:
  std::vector<LeaseInfo> leases_;
  std::uint64_t timeout_ms_;
  std::size_t max_attempts_;
  bool quarantine_exhausted_;
  std::size_t done_ = 0;
  std::size_t quarantined_ = 0;
};

}  // namespace xr::runtime::service
