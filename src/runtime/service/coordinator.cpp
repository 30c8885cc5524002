#include "runtime/service/coordinator.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/offload_search.h"
#include "runtime/shard/record_stream.h"

namespace xr::runtime::service {

namespace fs = std::filesystem;

namespace {

struct CoordinatorMetrics {
  obs::Counter workers_registered{"service.coordinator.workers_registered"};
  obs::Counter workers_deregistered{
      "service.coordinator.workers_deregistered"};
  obs::Counter leases_granted{"service.coordinator.leases_granted"};
  obs::Counter leases_completed{"service.coordinator.leases_completed"};
  obs::Counter leases_failed{"service.coordinator.leases_failed"};
  obs::Counter lease_expired{"service.lease.expired"};
  obs::Counter lease_reassigned{"service.lease.reassigned"};
  obs::Counter stale_messages{"service.coordinator.stale_messages"};
  obs::Counter records_merged{"service.coordinator.records_merged"};
  obs::Counter snapshots_collected{"service.coordinator.snapshots_collected"};
  obs::Counter fold_retries{"service.coordinator.fold_retries"};
  obs::Counter send_failures{"service.coordinator.send_failures"};
  obs::Counter implicit_registers{"service.coordinator.implicit_registers"};
  obs::Counter workers_resurrected{"service.coordinator.workers_resurrected"};
  obs::Counter shards_quarantined{"service.coordinator.shards_quarantined"};
  obs::Gauge workers_live{"service.coordinator.workers_live"};
  obs::Gauge leases_done{"service.coordinator.leases_done"};

  static CoordinatorMetrics& get() {
    static CoordinatorMetrics m;
    return m;
  }
};

std::uint64_t now_ms() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

struct WorkerState {
  bool live = false;                   ///< registered and not presumed dead.
  std::optional<std::size_t> lease;    ///< active lease, if any.
  std::optional<obs::ObsDocument> snapshot;
};

/// Keep a worker's final snapshot. It arrives twice, on the snapshot
/// message and on the deregister, so the first copy to land wins. A
/// missing or unparsable document (a skewed build) is dropped and counted
/// as a stale message.
void collect_snapshot(WorkerState& w, const core::Json* doc) {
  if (w.snapshot) return;
  CoordinatorMetrics& metrics = CoordinatorMetrics::get();
  try {
    if (doc) w.snapshot = obs::ObsDocument::from_json(*doc);
  } catch (const std::exception&) {
  }
  if (w.snapshot)
    metrics.snapshots_collected.add();
  else
    metrics.stale_messages.add();
}

/// Per-shard attempt stem: <shard_dir>/shard<k>.a<attempt>. Attempt
/// numbering keeps a revoked straggler's writes off the stream the next
/// attempt resumes.
std::string attempt_stem(const std::string& dir, std::size_t shard,
                         std::size_t attempt) {
  return (fs::path(dir) /
          ("shard" + std::to_string(shard) + ".a" + std::to_string(attempt)))
      .string();
}

}  // namespace

CoordinatorResult run_coordinator(Transport& transport,
                                  const SweepRequest& request,
                                  const CoordinatorOptions& options) {
  if (options.shards == 0)
    throw std::invalid_argument("coordinator: shards must be >= 1");
  if (options.shard_dir.empty())
    throw std::invalid_argument("coordinator: shard_dir is required");
  if (request.adaptive)
    throw std::invalid_argument(
        "coordinator: adaptive requests are not lease-schedulable yet — "
        "run the two-pass flow of scripts/sweep_adaptive.sh");
  fs::create_directories(options.shard_dir);

  CoordinatorMetrics& metrics = CoordinatorMetrics::get();
  const obs::Span span("service.coordinate");
  const std::uint64_t fingerprint = request.fingerprint();

  // Workers fetch the request document at their first grant; publish it
  // before any lease can be granted.
  transport.publish(kRequestKey, request.to_json().dump() + "\n");

  LeaseTable table(options.shards, options.lease_timeout_ms,
                   options.max_attempts, options.allow_partial);
  std::map<std::string, WorkerState> workers;
  // One fold per shard, collected as lease_complete messages land; the
  // final merge is the pure merge_partials over all of them.
  std::vector<std::optional<shard::PartialReduction>> partials(options.shards);
  // Why each shard last went back to pending — surfaced per quarantined
  // shard in the "xr.service.partial.v1" document.
  std::map<std::size_t, std::string> last_error;
  CoordinatorResult result;

  const auto live_workers = [&] {
    std::size_t n = 0;
    for (const auto& [name, w] : workers) n += w.live ? 1 : 0;
    return n;
  };

  // Best-effort send: control messages whose loss the protocol already
  // absorbs (revokes, shutdowns — expiry and idle timeouts recover) must
  // not crash the coordinator when the transport hiccups.
  const auto safe_send = [&](const std::string& to, const Message& msg) {
    try {
      transport.send(to, msg);
      return true;
    } catch (const std::exception&) {
      metrics.send_failures.add();
      return false;
    }
  };

  const auto grant_to = [&](const std::string& name, WorkerState& w) {
    if (!w.live || w.lease) return;
    const auto assignment = table.assign(name, now_ms());
    if (!assignment) return;
    LeaseGrantBody grant;
    grant.lease = assignment->lease;
    grant.attempt = assignment->attempt;
    grant.shard_count = options.shards;
    grant.strategy = shard::ShardStrategy::kRange;
    grant.output =
        attempt_stem(options.shard_dir, assignment->lease, assignment->attempt);
    if (assignment->previous_attempt)
      grant.resume_from = attempt_stem(options.shard_dir, assignment->lease,
                                       *assignment->previous_attempt);
    grant.fingerprint = fingerprint;
    w.lease = assignment->lease;
    if (!safe_send(name, make_lease_grant(grant))) {
      // The worker never saw the grant; waiting for its lease to expire
      // would only stall the shard. Put it straight back in the queue.
      table.fail(name, assignment->lease, assignment->attempt);
      w.lease.reset();
      return;
    }
    metrics.leases_granted.add();
  };

  const auto grant_pending = [&] {
    for (auto& [name, w] : workers) grant_to(name, w);
  };

  // ---- event loop -------------------------------------------------------
  while (!table.finished()) {
    for (const Message& msg : transport.poll(kCoordinatorEndpoint)) {
      WorkerState* w = nullptr;
      if (msg.kind != MessageKind::kRegister) {
        auto it = workers.find(msg.from);
        if (it == workers.end()) {
          // An IDLE heartbeat from a stranger is a worker whose register
          // was lost on the wire — adopt it (implicit register) rather
          // than strand a live worker forever.
          bool adopt = false;
          if (msg.kind == MessageKind::kHeartbeat) {
            const auto hb = parse_body<HeartbeatBody>(msg);
            adopt = hb && !hb->busy;
          }
          if (!adopt) {
            metrics.stale_messages.add();
            continue;  // never registered (or message from a prior run).
          }
          workers[msg.from].live = true;
          ++result.workers_seen;
          metrics.implicit_registers.add();
          metrics.workers_registered.add();
          continue;  // this tick's grant_pending pass can use it already.
        }
        w = &it->second;
      }
      switch (msg.kind) {
        case MessageKind::kRegister: {
          WorkerState& state = workers[msg.from];
          if (!state.live) {
            state.live = true;
            ++result.workers_seen;
            metrics.workers_registered.add();
          }
          // A rejoin after a revoke carries no lease by construction; a
          // duplicate register while leased is a worker restart — its old
          // lease deadline will expire and reassign.
          break;
        }
        case MessageKind::kDeregister: {
          table.release_worker(msg.from);  // lease back to pending.
          w->live = false;
          w->lease.reset();
          metrics.workers_deregistered.add();
          if (const core::Json* doc = msg.body.find("doc"))
            collect_snapshot(*w, doc);
          break;
        }
        case MessageKind::kHeartbeat: {
          // Bodies that do not parse are dropped as stale, here and below.
          const auto hb = parse_body<HeartbeatBody>(msg);
          if (!hb) {
            metrics.stale_messages.add();
          } else if (hb->busy) {
            if (!table.heartbeat(msg.from, hb->lease, hb->attempt,
                                 hb->records_done, now_ms()))
              metrics.stale_messages.add();
          } else if (!w->live) {
            // Expiry presumed this worker dead, yet here it is, idle (it
            // abandoned the revoked lease or finished and lost the
            // message): let it rejoin the pool.
            w->live = true;
            w->lease.reset();
            metrics.workers_resurrected.add();
          }
          break;
        }
        case MessageKind::kLeaseComplete: {
          const auto done = parse_body<LeaseCompleteBody>(msg);
          if (!done || !table.holds(msg.from, done->lease, done->attempt)) {
            metrics.stale_messages.add();
            break;
          }
          w->lease.reset();
          // Fold FIRST, complete after: a completion is only real once
          // its records fold (the streaming merge through the
          // RecordSource seam). A transient read error gets bounded
          // retries; a persistently unusable stream (torn, corrupt,
          // deleted, wrong sweep) fails the attempt — reassignment, never
          // a merged lie and never an aborted sweep.
          const std::size_t fold_attempts =
              std::max<std::size_t>(options.fold_retries, 1);
          std::optional<shard::PartialReduction> partial;
          std::string error;
          for (std::size_t t = 0; t < fold_attempts && !partial; ++t) {
            try {
              if (const auto fault = fail::point("service.coordinator.fold"))
                if (fault->action == fail::Action::kIoError)
                  throw std::runtime_error(
                      "fault injected: service.coordinator.fold io_error (" +
                      done->records_path + ")");
              shard::PartialReduction folded =
                  shard::partial_from_records(done->records_path);
              if (folded.identity().grid_fingerprint != fingerprint)
                throw std::runtime_error(
                    "completed shard carries the wrong sweep fingerprint");
              partial = std::move(folded);
            } catch (const std::exception& e) {
              error = e.what();
              if (t + 1 < fold_attempts) metrics.fold_retries.add();
            }
          }
          if (partial) {
            table.complete(msg.from, done->lease, done->attempt);
            metrics.records_merged.add(partial->evaluated());
            partials[done->lease] = std::move(*partial);
            metrics.leases_completed.add();
            metrics.leases_done.set(double(table.done_count()));
          } else {
            metrics.leases_failed.add();
            table.fail(msg.from, done->lease, done->attempt);
            last_error[done->lease] = error;
          }
          break;
        }
        case MessageKind::kLeaseFailed: {
          const auto failed = parse_body<LeaseFailedBody>(msg);
          if (!failed) {
            metrics.stale_messages.add();
            break;
          }
          metrics.leases_failed.add();
          if (table.fail(msg.from, failed->lease, failed->attempt)) {
            w->lease.reset();
            last_error[failed->lease] = failed->error;
          } else {
            metrics.stale_messages.add();
          }
          break;
        }
        case MessageKind::kSnapshot: {
          collect_snapshot(*w, msg.body.find("doc"));
          break;
        }
        default:
          metrics.stale_messages.add();
          break;
      }
    }

    // Expire leases whose holders went quiet: presume the worker dead,
    // tell it to abandon in case it is merely slow, reassign the shard.
    for (const LeaseExpiry& expired : table.expire(now_ms())) {
      metrics.lease_expired.add();
      metrics.lease_reassigned.add();
      ++result.leases_reassigned;
      last_error[expired.lease] = "lease expired (holder '" + expired.holder +
                                  "' missed its heartbeat deadline)";
      auto it = workers.find(expired.holder);
      if (it != workers.end()) {
        it->second.live = false;
        it->second.lease.reset();
      }
      safe_send(expired.holder,
                make_revoke({expired.lease, expired.attempt}));
    }

    grant_pending();
    metrics.workers_live.set(double(live_workers()));
    if (table.finished()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }

  // ---- final merge ------------------------------------------------------
  result.quarantined = table.quarantined_ids();
  std::vector<shard::PartialReduction> folded;
  std::vector<std::size_t> completed;
  folded.reserve(options.shards);
  for (std::size_t k = 0; k < options.shards; ++k) {
    if (partials[k]) {
      folded.push_back(*partials[k]);
      completed.push_back(k);
    } else if (!std::count(result.quarantined.begin(),
                           result.quarantined.end(), k)) {
      throw std::runtime_error("coordinator: shard " + std::to_string(k) +
                               " is done but carries no fold");
    }
  }
  if (result.quarantined.empty()) {
    result.summary = shard::merge_partials(folded);
    if (request.reduction.kind == ReductionKind::kOffloadPlan)
      result.plan = core::offload_plan_from_summary(request, result.summary);
  } else {
    // Graceful degradation (allow_partial): merge what completed and emit
    // the named partial document. No OffloadPlan — an argmin over a
    // subset of the grid would be a silently wrong answer.
    metrics.shards_quarantined.add(result.quarantined.size());
    if (folded.empty())
      throw std::runtime_error(
          "coordinator: every shard was quarantined — nothing completed "
          "(inspect the shard stems under " + options.shard_dir + ")");
    result.summary =
        shard::merge_partials(folded, /*require_complete_cover=*/false);
    core::Json doc = core::Json::object();
    doc.set("schema", kPartialDocumentSchema);
    doc.set("total_shards", options.shards);
    core::Json quarantined_json = core::Json::array();
    for (std::size_t k : result.quarantined) {
      core::Json q = core::Json::object();
      q.set("shard", k);
      q.set("attempts", table.info(k).attempt + 1);
      const auto it = last_error.find(k);
      q.set("last_error", it == last_error.end() ? std::string() : it->second);
      quarantined_json.push_back(std::move(q));
    }
    doc.set("quarantined", std::move(quarantined_json));
    core::Json completed_json = core::Json::array();
    for (std::size_t k : completed) completed_json.push_back(k);
    doc.set("completed", std::move(completed_json));
    doc.set("summary", result.summary.to_json());
    result.partial_document = std::move(doc);
  }

  // ---- drain: shutdown broadcast + snapshot collection ------------------
  // Presumed-dead workers are told too: a straggler whose lease expired
  // may be alive and idle, and nothing else would ever tell it to exit.
  for (const auto& entry : workers) safe_send(entry.first, make_shutdown());
  const std::uint64_t drain_deadline = now_ms() + options.shutdown_grace_ms;
  const auto all_drained = [&] {
    for (const auto& [name, w] : workers)
      if (w.live) return false;
    return true;
  };
  while (!all_drained() && now_ms() < drain_deadline) {
    for (const Message& msg : transport.poll(kCoordinatorEndpoint)) {
      auto it = workers.find(msg.from);
      switch (msg.kind) {
        case MessageKind::kRegister:
          // A very late joiner: nothing left to do — send it home.
          safe_send(msg.from, make_shutdown());
          break;
        case MessageKind::kSnapshot:
          if (it != workers.end())
            collect_snapshot(it->second, msg.body.find("doc"));
          break;
        case MessageKind::kDeregister:
          if (it != workers.end()) {
            it->second.live = false;
            metrics.workers_deregistered.add();
            if (const core::Json* doc = msg.body.find("doc"))
              collect_snapshot(it->second, doc);
          }
          break;
        default:
          break;  // stragglers; the sweep is already merged.
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }

  // ---- aggregated, worker-labeled snapshot ------------------------------
  std::vector<std::pair<std::string, obs::ObsDocument>> labeled;
  for (const auto& [name, w] : workers)
    if (w.snapshot) labeled.emplace_back(name, *w.snapshot);
  result.metrics = obs::aggregate_labeled(obs::capture(), labeled);
  return result;
}

}  // namespace xr::runtime::service
