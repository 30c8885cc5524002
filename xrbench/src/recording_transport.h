// A Transport decorator that records the service's wire traffic.
//
// RecordingTransport forwards every send, poll, publish and fetch to the
// wrapped transport unchanged and returns its results unchanged. Around
// each call it opens an obs::Span (named after the operation, with the
// lease and attempt when the message carries them) and logs the
// operation's kind, bytes, messages and timing to a TransportLog shared by
// every participant of one service run. The log yields the lease timeline:
// when each lease was granted, when its worker reported it complete, and
// when the coordinator received that report.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "report.h"
#include "runtime/service/transport.h"

namespace xrbench {

enum class TransportOp { kSend, kPoll, kPublish, kFetch };

/// Kind of one message on the wire, plus its lease and attempt when the
/// body names them.
struct MessageTag {
  xr::runtime::service::MessageKind kind =
      xr::runtime::service::MessageKind::kRegister;
  std::optional<std::size_t> lease;
  std::optional<std::size_t> attempt;
  std::string records_path;  ///< lease_complete only.
};
[[nodiscard]] MessageTag tag_of(const xr::runtime::service::Message& msg);

struct TransportEvent {
  TransportOp op = TransportOp::kSend;
  std::string participant;  ///< the decorated endpoint's owner.
  std::string endpoint;     ///< send: recipient; poll: inbox; else blob key.
  double start_ms = 0;      ///< since the log's epoch.
  double end_ms = 0;
  std::size_t bytes = 0;    ///< message or blob bytes moved.
  std::vector<MessageTag> messages;  ///< send: one; poll: those received.
};

/// Thread-safe event log of one service run.
class TransportLog {
 public:
  TransportLog() : epoch_(Clock::now()) {}
  [[nodiscard]] double now_ms() const {
    return 1000.0 * seconds_since(epoch_);
  }
  void record(TransportEvent event);
  [[nodiscard]] std::vector<TransportEvent> events() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<TransportEvent> events_;  // guarded by mutex_
};

class RecordingTransport final : public xr::runtime::service::Transport {
 public:
  /// `inner` and `log` must outlive the decorator.
  RecordingTransport(xr::runtime::service::Transport& inner, TransportLog& log,
                     std::string participant);

  void send(const std::string& to,
            const xr::runtime::service::Message& msg) override;
  std::vector<xr::runtime::service::Message> poll(
      const std::string& inbox) override;
  void publish(const std::string& key, const std::string& content) override;
  std::optional<std::string> fetch(const std::string& key) override;

 private:
  xr::runtime::service::Transport& inner_;
  TransportLog& log_;
  std::string participant_;
};

/// One lease attempt as the wire saw it (times in ms since the log epoch;
/// negative when the event never happened).
struct LeaseRecord {
  std::size_t lease = 0;
  std::size_t attempt = 0;
  double granted_ms = -1;   ///< coordinator sent lease_grant.
  double completed_ms = -1; ///< worker sent lease_complete.
  double received_ms = -1;  ///< coordinator polled the lease_complete.
  std::string records_path; ///< the completed shard's record stream.
};

/// Lease attempts ordered by (lease, attempt).
[[nodiscard]] std::vector<LeaseRecord> lease_timeline(
    const std::vector<TransportEvent>& events);

}  // namespace xrbench
