#include "recording_transport.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/span.h"

namespace xrbench {

namespace svc = xr::runtime::service;

namespace {

TransportEvent new_event(TransportOp op, const std::string& participant,
                         const std::string& endpoint) {
  TransportEvent event;
  event.op = op;
  event.participant = participant;
  event.endpoint = endpoint;
  return event;
}

}  // namespace

MessageTag tag_of(const svc::Message& msg) {
  MessageTag tag;
  tag.kind = msg.kind;
  switch (msg.kind) {
    case svc::MessageKind::kLeaseGrant: {
      const auto body = svc::LeaseGrantBody::from_json(msg.body);
      tag.lease = body.lease;
      tag.attempt = body.attempt;
      break;
    }
    case svc::MessageKind::kHeartbeat: {
      const auto body = svc::HeartbeatBody::from_json(msg.body);
      if (body.busy) {
        tag.lease = body.lease;
        tag.attempt = body.attempt;
      }
      break;
    }
    case svc::MessageKind::kLeaseComplete: {
      const auto body = svc::LeaseCompleteBody::from_json(msg.body);
      tag.lease = body.lease;
      tag.attempt = body.attempt;
      tag.records_path = body.records_path;
      break;
    }
    case svc::MessageKind::kLeaseFailed: {
      const auto body = svc::LeaseFailedBody::from_json(msg.body);
      tag.lease = body.lease;
      tag.attempt = body.attempt;
      break;
    }
    case svc::MessageKind::kRevoke: {
      const auto body = svc::RevokeBody::from_json(msg.body);
      tag.lease = body.lease;
      tag.attempt = body.attempt;
      break;
    }
    default:
      break;
  }
  return tag;
}

void TransportLog::record(TransportEvent event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

std::vector<TransportEvent> TransportLog::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

RecordingTransport::RecordingTransport(svc::Transport& inner,
                                       TransportLog& log,
                                       std::string participant)
    : inner_(inner), log_(log), participant_(std::move(participant)) {}

void RecordingTransport::send(const std::string& to, const svc::Message& msg) {
  const MessageTag tag = tag_of(msg);
  std::string name = "bench.transport.send[to=" + to +
                     ",kind=" + svc::message_kind_name(msg.kind);
  if (tag.lease)
    name += ",lease=" + std::to_string(*tag.lease) +
            ",attempt=" + std::to_string(*tag.attempt);
  name += "]";
  TransportEvent event = new_event(TransportOp::kSend, participant_, to);
  {
    const xr::obs::Span span(name.c_str());
    event.start_ms = log_.now_ms();
    inner_.send(to, msg);
    event.end_ms = log_.now_ms();
  }
  event.bytes = msg.to_json().dump().size();
  event.messages.push_back(tag);
  log_.record(std::move(event));
}

std::vector<svc::Message> RecordingTransport::poll(const std::string& inbox) {
  const std::string name = "bench.transport.poll[inbox=" + inbox + "]";
  TransportEvent event = new_event(TransportOp::kPoll, participant_, inbox);
  std::vector<svc::Message> out;
  {
    const xr::obs::Span span(name.c_str());
    event.start_ms = log_.now_ms();
    out = inner_.poll(inbox);
    event.end_ms = log_.now_ms();
  }
  for (const svc::Message& msg : out) {
    event.bytes += msg.to_json().dump().size();
    event.messages.push_back(tag_of(msg));
  }
  log_.record(std::move(event));
  return out;
}

void RecordingTransport::publish(const std::string& key,
                                 const std::string& content) {
  const std::string name = "bench.transport.publish[key=" + key + "]";
  TransportEvent event = new_event(TransportOp::kPublish, participant_, key);
  {
    const xr::obs::Span span(name.c_str());
    event.start_ms = log_.now_ms();
    inner_.publish(key, content);
    event.end_ms = log_.now_ms();
  }
  event.bytes = content.size();
  log_.record(std::move(event));
}

std::optional<std::string> RecordingTransport::fetch(const std::string& key) {
  const std::string name = "bench.transport.fetch[key=" + key + "]";
  TransportEvent event = new_event(TransportOp::kFetch, participant_, key);
  std::optional<std::string> out;
  {
    const xr::obs::Span span(name.c_str());
    event.start_ms = log_.now_ms();
    out = inner_.fetch(key);
    event.end_ms = log_.now_ms();
  }
  event.bytes = out ? out->size() : 0;
  log_.record(std::move(event));
  return out;
}

std::vector<LeaseRecord> lease_timeline(
    const std::vector<TransportEvent>& events) {
  std::map<std::pair<std::size_t, std::size_t>, LeaseRecord> by_attempt;
  const auto record_for = [&](const MessageTag& tag) -> LeaseRecord& {
    LeaseRecord& r = by_attempt[{*tag.lease, *tag.attempt}];
    r.lease = *tag.lease;
    r.attempt = *tag.attempt;
    return r;
  };
  for (const TransportEvent& e : events) {
    for (const MessageTag& tag : e.messages) {
      if (!tag.lease) continue;
      if (e.op == TransportOp::kSend &&
          tag.kind == svc::MessageKind::kLeaseGrant) {
        record_for(tag).granted_ms = e.start_ms;
      } else if (e.op == TransportOp::kSend &&
                 tag.kind == svc::MessageKind::kLeaseComplete) {
        LeaseRecord& r = record_for(tag);
        r.completed_ms = e.end_ms;
        r.records_path = tag.records_path;
      } else if (e.op == TransportOp::kPoll &&
                 tag.kind == svc::MessageKind::kLeaseComplete) {
        record_for(tag).received_ms = e.end_ms;
      }
    }
  }
  std::vector<LeaseRecord> out;
  for (auto& [key, record] : by_attempt) out.push_back(std::move(record));
  return out;
}

}  // namespace xrbench
