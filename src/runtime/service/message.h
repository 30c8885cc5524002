// Wire messages of the elastic sweep service.
//
// Coordinator and workers exchange versioned JSON documents over a
// pluggable Transport (transport.h). Every message is one envelope:
//
//   {"schema": "xr.service.msg.v1", "kind": "lease_grant",
//    "from": "coordinator", "body": {...kind-specific...}}
//
// Parsing is strict in the same named-field-rejection style as the rest of
// the repo's documents: an unknown envelope or body field throws
// std::invalid_argument naming the offender, and a schema bump is a named
// refusal rather than a silent best-effort read — two builds that disagree
// on the protocol must never mis-coordinate a sweep. The service loops
// parse bodies through parse_body (below) and drop a message that fails:
// the coordinator counts it in service.coordinator.stale_messages.
//
// The protocol (worker -> coordinator unless noted):
//
//   register        worker joins the pool (idempotent; re-sent to rejoin
//                   after a revoke).
//   deregister      worker leaves cleanly; its active lease returns to the
//                   pending queue. At shutdown it also carries the worker's
//                   final snapshot `doc`, so losing either that message or
//                   the snapshot message keeps the telemetry.
//   heartbeat       liveness + progress of the worker's active lease; the
//                   coordinator extends the lease deadline only when the
//                   (lease, attempt) pair matches the current holder.
//   lease_grant     coordinator -> worker: run shard `lease` of the fixed
//                   partition, streaming to `output`; `resume_from` names
//                   the previous attempt's stem after a reassignment.
//   lease_complete  the shard's record stream is complete at
//                   `records_path`; the coordinator folds it immediately.
//   lease_failed    the worker could not run the lease (named error);
//                   the coordinator reassigns it.
//   revoke          coordinator -> worker: the named (lease, attempt) was
//                   expired and reassigned — abandon it and re-register.
//   snapshot        the worker's "xr.obs.snapshot.v1" document, sent at
//                   shutdown so the coordinator can expose one aggregated,
//                   worker-labeled snapshot.
//   shutdown        coordinator -> worker: the sweep is merged; exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <string>

#include "core/jsonio.h"
#include "runtime/shard/shard_plan.h"

namespace xr::runtime::service {

inline constexpr const char* kMessageSchema = "xr.service.msg.v1";
/// The coordinator's well-known mailbox name.
inline constexpr const char* kCoordinatorEndpoint = "coordinator";
/// The blob-board key under which the coordinator publishes the
/// SweepRequest document workers execute.
inline constexpr const char* kRequestKey = "request.json";

enum class MessageKind {
  kRegister,
  kDeregister,
  kHeartbeat,
  kLeaseGrant,
  kLeaseComplete,
  kLeaseFailed,
  kRevoke,
  kSnapshot,
  kShutdown,
};

[[nodiscard]] const char* message_kind_name(MessageKind k) noexcept;
/// Inverse of message_kind_name; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] MessageKind message_kind_from_name(const std::string& name);

/// The envelope every service message travels in. `body` holds the
/// kind-specific document (an empty object for bodyless kinds); the typed
/// body structs below parse it strictly.
struct Message {
  MessageKind kind = MessageKind::kRegister;
  std::string from;
  core::Json body = core::Json::object();

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static Message from_json(const core::Json& j);
};

// ---- typed bodies ------------------------------------------------------

/// coordinator -> worker: run one shard of the fixed partition.
struct LeaseGrantBody {
  std::size_t lease = 0;        ///< shard id in the coordinator's partition.
  std::size_t attempt = 0;      ///< reassignment generation of this lease.
  std::size_t shard_count = 1;  ///< the partition's fixed shard count.
  shard::ShardStrategy strategy = shard::ShardStrategy::kRange;
  /// This attempt's output stem (the worker streams to <output>.xrb).
  std::string output;
  /// Previous attempt's stem after a reassignment ("" on attempt 0): the
  /// worker copies its surviving record stream forward and resumes, so a
  /// dead worker's flushed prefix is never re-evaluated.
  std::string resume_from;
  /// The request's sweep fingerprint — the worker refuses a grant whose
  /// fingerprint disagrees with the request document it fetched.
  std::uint64_t fingerprint = 0;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static LeaseGrantBody from_json(const core::Json& j);
};

/// worker -> coordinator: liveness + progress.
struct HeartbeatBody {
  bool busy = false;            ///< a lease is actively being worked.
  std::size_t lease = 0;        ///< meaningful only when busy.
  std::size_t attempt = 0;      ///< meaningful only when busy.
  std::size_t records_done = 0; ///< records in the shard stream so far.

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static HeartbeatBody from_json(const core::Json& j);
};

/// worker -> coordinator: the shard is complete on disk.
struct LeaseCompleteBody {
  std::size_t lease = 0;
  std::size_t attempt = 0;
  std::string records_path;  ///< the complete <output>.xrb record stream.
  std::size_t records = 0;   ///< records in the stream.

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static LeaseCompleteBody from_json(const core::Json& j);
};

/// worker -> coordinator: the lease could not be run.
struct LeaseFailedBody {
  std::size_t lease = 0;
  std::size_t attempt = 0;
  std::string error;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static LeaseFailedBody from_json(const core::Json& j);
};

/// coordinator -> worker: the named grant was expired and reassigned.
struct RevokeBody {
  std::size_t lease = 0;
  std::size_t attempt = 0;

  [[nodiscard]] core::Json to_json() const;
  [[nodiscard]] static RevokeBody from_json(const core::Json& j);
};

// ---- envelope helpers ---------------------------------------------------

[[nodiscard]] Message make_register(const std::string& from);
/// `snapshot_doc`, when not null, is the worker's final snapshot (the
/// same document make_snapshot sends).
[[nodiscard]] Message make_deregister(const std::string& from,
                                      core::Json snapshot_doc = core::Json());
[[nodiscard]] Message make_heartbeat(const std::string& from,
                                     const HeartbeatBody& body);
[[nodiscard]] Message make_lease_grant(const LeaseGrantBody& body);
[[nodiscard]] Message make_lease_complete(const std::string& from,
                                          const LeaseCompleteBody& body);
[[nodiscard]] Message make_lease_failed(const std::string& from,
                                        const LeaseFailedBody& body);
[[nodiscard]] Message make_revoke(const RevokeBody& body);
/// `doc` is a full "xr.obs.snapshot.v1" document (obs/snapshot.h).
[[nodiscard]] Message make_snapshot(const std::string& from, core::Json doc);
[[nodiscard]] Message make_shutdown();

/// Parse `msg`'s body as `Body`, or nullopt when it does not parse. The
/// service loops drop such a message instead of ending the run: a skewed
/// build or a damaged mailbox file costs one message, never a sweep.
template <class Body>
[[nodiscard]] std::optional<Body> parse_body(const Message& msg) {
  try {
    return Body::from_json(msg.body);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace xr::runtime::service
