#include "runtime/service/message.h"

#include <stdexcept>

namespace xr::runtime::service {

using core::Json;
using core::walk_strict;

const char* message_kind_name(MessageKind k) noexcept {
  switch (k) {
    case MessageKind::kRegister: return "register";
    case MessageKind::kDeregister: return "deregister";
    case MessageKind::kHeartbeat: return "heartbeat";
    case MessageKind::kLeaseGrant: return "lease_grant";
    case MessageKind::kLeaseComplete: return "lease_complete";
    case MessageKind::kLeaseFailed: return "lease_failed";
    case MessageKind::kRevoke: return "revoke";
    case MessageKind::kSnapshot: return "snapshot";
    case MessageKind::kShutdown: return "shutdown";
  }
  return "?";
}

MessageKind message_kind_from_name(const std::string& name) {
  for (MessageKind k :
       {MessageKind::kRegister, MessageKind::kDeregister,
        MessageKind::kHeartbeat, MessageKind::kLeaseGrant,
        MessageKind::kLeaseComplete, MessageKind::kLeaseFailed,
        MessageKind::kRevoke, MessageKind::kSnapshot, MessageKind::kShutdown})
    if (name == message_kind_name(k)) return k;
  throw std::invalid_argument("service message: unknown kind '" + name + "'");
}

Json Message::to_json() const {
  Json j = Json::object();
  j.set("schema", kMessageSchema);
  j.set("kind", message_kind_name(kind));
  j.set("from", from);
  j.set("body", body);
  return j;
}

Message Message::from_json(const Json& j) {
  Message out;
  bool saw_schema = false, saw_kind = false, saw_from = false, saw_body = false;
  walk_strict(j, "service message", [&](const std::string& key,
                                        const Json& value) {
    if (key == "schema") {
      if (value.as_string() != kMessageSchema)
        throw std::invalid_argument("service message: unknown schema '" +
                                    value.as_string() + "'");
      saw_schema = true;
    } else if (key == "kind") {
      out.kind = message_kind_from_name(value.as_string());
      saw_kind = true;
    } else if (key == "from") {
      out.from = value.as_string();
      saw_from = true;
    } else if (key == "body") {
      if (!value.is_object())
        throw std::invalid_argument("service message: body must be an object");
      out.body = value;
      saw_body = true;
    } else {
      return false;
    }
    return true;
  });
  if (!saw_schema)
    throw std::invalid_argument("service message: missing 'schema'");
  if (!saw_kind) throw std::invalid_argument("service message: missing 'kind'");
  if (!saw_from) throw std::invalid_argument("service message: missing 'from'");
  if (!saw_body) throw std::invalid_argument("service message: missing 'body'");
  return out;
}

// ---- bodies -------------------------------------------------------------

Json LeaseGrantBody::to_json() const {
  Json j = Json::object();
  j.set("lease", lease);
  j.set("attempt", attempt);
  j.set("shard_count", shard_count);
  j.set("strategy", shard::strategy_name(strategy));
  j.set("output", output);
  if (!resume_from.empty()) j.set("resume_from", resume_from);
  j.set("fingerprint", core::format_hex64(fingerprint));
  return j;
}

LeaseGrantBody LeaseGrantBody::from_json(const Json& j) {
  LeaseGrantBody out;
  bool saw_lease = false, saw_count = false, saw_output = false,
       saw_fp = false;
  walk_strict(j, "lease_grant", [&](const std::string& key,
                                    const Json& value) {
    if (key == "lease") {
      out.lease = value.as_size();
      saw_lease = true;
    } else if (key == "attempt") {
      out.attempt = value.as_size();
    } else if (key == "shard_count") {
      out.shard_count = value.as_size();
      saw_count = true;
    } else if (key == "strategy") {
      out.strategy = shard::strategy_from_name(value.as_string());
    } else if (key == "output") {
      out.output = value.as_string();
      saw_output = true;
    } else if (key == "resume_from") {
      out.resume_from = value.as_string();
    } else if (key == "fingerprint") {
      out.fingerprint = core::parse_hex64(value.as_string());
      saw_fp = true;
    } else {
      return false;
    }
    return true;
  });
  if (!saw_lease) throw std::invalid_argument("lease_grant: missing 'lease'");
  if (!saw_count)
    throw std::invalid_argument("lease_grant: missing 'shard_count'");
  if (out.shard_count == 0)
    throw std::invalid_argument("lease_grant: shard_count must be >= 1");
  if (out.lease >= out.shard_count)
    throw std::invalid_argument("lease_grant: lease out of range");
  if (!saw_output || out.output.empty())
    throw std::invalid_argument("lease_grant: missing 'output'");
  if (!saw_fp)
    throw std::invalid_argument("lease_grant: missing 'fingerprint'");
  return out;
}

Json HeartbeatBody::to_json() const {
  Json j = Json::object();
  j.set("busy", busy);
  if (busy) {
    j.set("lease", lease);
    j.set("attempt", attempt);
    j.set("records_done", records_done);
  }
  return j;
}

HeartbeatBody HeartbeatBody::from_json(const Json& j) {
  HeartbeatBody out;
  walk_strict(j, "heartbeat",
              [&](const std::string& key, const Json& value) {
                if (key == "busy") out.busy = value.as_bool();
                else if (key == "lease") out.lease = value.as_size();
                else if (key == "attempt") out.attempt = value.as_size();
                else if (key == "records_done")
                  out.records_done = value.as_size();
                else
                  return false;
                return true;
              });
  return out;
}

Json LeaseCompleteBody::to_json() const {
  Json j = Json::object();
  j.set("lease", lease);
  j.set("attempt", attempt);
  j.set("records_path", records_path);
  j.set("records", records);
  return j;
}

LeaseCompleteBody LeaseCompleteBody::from_json(const Json& j) {
  LeaseCompleteBody out;
  bool saw_lease = false, saw_path = false;
  walk_strict(j, "lease_complete",
              [&](const std::string& key, const Json& value) {
                if (key == "lease") {
                  out.lease = value.as_size();
                  saw_lease = true;
                } else if (key == "attempt") {
                  out.attempt = value.as_size();
                } else if (key == "records_path") {
                  out.records_path = value.as_string();
                  saw_path = true;
                } else if (key == "records") {
                  out.records = value.as_size();
                } else {
                  return false;
                }
                return true;
              });
  if (!saw_lease)
    throw std::invalid_argument("lease_complete: missing 'lease'");
  if (!saw_path || out.records_path.empty())
    throw std::invalid_argument("lease_complete: missing 'records_path'");
  return out;
}

Json LeaseFailedBody::to_json() const {
  Json j = Json::object();
  j.set("lease", lease);
  j.set("attempt", attempt);
  j.set("error", error);
  return j;
}

LeaseFailedBody LeaseFailedBody::from_json(const Json& j) {
  LeaseFailedBody out;
  bool saw_lease = false;
  walk_strict(j, "lease_failed",
              [&](const std::string& key, const Json& value) {
                if (key == "lease") {
                  out.lease = value.as_size();
                  saw_lease = true;
                } else if (key == "attempt") {
                  out.attempt = value.as_size();
                } else if (key == "error") {
                  out.error = value.as_string();
                } else {
                  return false;
                }
                return true;
              });
  if (!saw_lease) throw std::invalid_argument("lease_failed: missing 'lease'");
  return out;
}

Json RevokeBody::to_json() const {
  Json j = Json::object();
  j.set("lease", lease);
  j.set("attempt", attempt);
  return j;
}

RevokeBody RevokeBody::from_json(const Json& j) {
  RevokeBody out;
  bool saw_lease = false;
  walk_strict(j, "revoke", [&](const std::string& key, const Json& value) {
    if (key == "lease") {
      out.lease = value.as_size();
      saw_lease = true;
    } else if (key == "attempt") {
      out.attempt = value.as_size();
    } else {
      return false;
    }
    return true;
  });
  if (!saw_lease) throw std::invalid_argument("revoke: missing 'lease'");
  return out;
}

// ---- helpers ------------------------------------------------------------

namespace {
Message make(MessageKind kind, std::string from, Json body) {
  Message m;
  m.kind = kind;
  m.from = std::move(from);
  m.body = std::move(body);
  return m;
}
}  // namespace

Message make_register(const std::string& from) {
  return make(MessageKind::kRegister, from, Json::object());
}
Message make_deregister(const std::string& from, Json snapshot_doc) {
  Json body = Json::object();
  if (!snapshot_doc.is_null()) body.set("doc", std::move(snapshot_doc));
  return make(MessageKind::kDeregister, from, std::move(body));
}
Message make_heartbeat(const std::string& from, const HeartbeatBody& body) {
  return make(MessageKind::kHeartbeat, from, body.to_json());
}
Message make_lease_grant(const LeaseGrantBody& body) {
  return make(MessageKind::kLeaseGrant, kCoordinatorEndpoint, body.to_json());
}
Message make_lease_complete(const std::string& from,
                            const LeaseCompleteBody& body) {
  return make(MessageKind::kLeaseComplete, from, body.to_json());
}
Message make_lease_failed(const std::string& from,
                          const LeaseFailedBody& body) {
  return make(MessageKind::kLeaseFailed, from, body.to_json());
}
Message make_revoke(const RevokeBody& body) {
  return make(MessageKind::kRevoke, kCoordinatorEndpoint, body.to_json());
}
Message make_snapshot(const std::string& from, Json doc) {
  Json body = Json::object();
  body.set("doc", std::move(doc));
  return make(MessageKind::kSnapshot, from, std::move(body));
}
Message make_shutdown() {
  return make(MessageKind::kShutdown, kCoordinatorEndpoint, Json::object());
}

}  // namespace xr::runtime::service
