#include "runtime/service/worker_loop.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/failpoint.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "runtime/shard/worker.h"
#include "runtime/sweep_request.h"

namespace xr::runtime::service {

namespace fs = std::filesystem;

namespace {

struct ServeMetrics {
  obs::Counter grants{"service.worker.grants"};
  obs::Counter completed{"service.worker.leases_completed"};
  obs::Counter failed{"service.worker.leases_failed"};
  obs::Counter revoked{"service.worker.revocations"};
  obs::Counter slices{"service.worker.slices"};
  obs::Counter heartbeats{"service.worker.heartbeats_sent"};
  obs::Counter fresh_restarts{"service.worker.fresh_restarts"};
  obs::Counter send_failures{"service.worker.send_failures"};
  obs::Counter request_refetches{"service.worker.request_refetches"};

  static ServeMetrics& get() {
    static ServeMetrics m;
    return m;
  }
};

std::uint64_t now_ms() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// Carry a dead attempt's surviving record stream forward so its flushed
/// prefix is resumed, not re-evaluated. A missing stream is fine (the
/// attempt died before its first flush); a copy that catches a torn tail
/// is fine too (the resume scan truncates it).
void copy_attempt_forward(const std::string& from_stem,
                          const std::string& to_stem) {
  std::error_code ec;
  const std::string src = shard::record_path(from_stem);
  if (!fs::exists(src, ec)) return;
  const std::string dst = shard::record_path(to_stem);
  fs::copy_file(src, dst, fs::copy_options::overwrite_existing, ec);
  if (ec)
    throw std::runtime_error("serve: cannot copy " + src + " to " + dst +
                             ": " + ec.message());
}

/// The active lease: the grant plus the ready-to-run worker spec.
struct ActiveLease {
  LeaseGrantBody grant;
  shard::WorkerSpec spec;
  /// options.slice_records rounded up to the spec's chunk —
  /// record streams accept only chunk-aligned resume prefixes (the
  /// byte-identity-on-the-chunk-grid rule of binary_stream.h), so a slice
  /// that stopped mid-chunk would be truncated by the next slice's resume
  /// scan and re-evaluated forever.
  std::size_t slice_records = 1;
  std::size_t records_done = 0;
  /// One local repair per lease: set after wiping the stem and retrying
  /// fresh; a second failure reports lease_failed.
  bool fresh_retried = false;
  /// The lease's open shard: opened by its first slice, stepped by every
  /// slice after, so the stem is scanned once per lease, not per slice.
  std::unique_ptr<shard::ShardRun> run;
};

}  // namespace

WorkerLoopOutcome run_service_worker(Transport& transport,
                                     const WorkerLoopOptions& options) {
  validate_endpoint_name(options.name);
  if (options.slice_records == 0)
    throw std::invalid_argument("serve: slice_records must be >= 1");

  WorkerLoopOutcome out;
  std::optional<SweepRequest> request;  // fetched + cached at first grant.
  std::uint64_t request_fingerprint = 0;
  std::optional<ActiveLease> active;
  std::uint64_t last_heartbeat = 0;
  std::uint64_t last_contact = now_ms();
  ServeMetrics& metrics = ServeMetrics::get();

  // Coordinator-bound sends are best-effort: the lease protocol already
  // survives a silent worker (the lease expires and reassigns), so a
  // transport failure must degrade to exactly that, never crash the loop.
  const auto safe_send = [&](const Message& msg) -> bool {
    try {
      transport.send(kCoordinatorEndpoint, msg);
      return true;
    } catch (const std::exception&) {
      metrics.send_failures.add();
      return false;
    }
  };

  safe_send(make_register(options.name));

  const auto send_heartbeat = [&](std::uint64_t now) {
    HeartbeatBody hb;
    if (active) {
      hb.busy = true;
      hb.lease = active->grant.lease;
      hb.attempt = active->grant.attempt;
      hb.records_done = active->records_done;
    }
    safe_send(make_heartbeat(options.name, hb));
    metrics.heartbeats.add();
    last_heartbeat = now;
  };

  // Fetch + validate the request document against the grant, with bounded
  // re-fetches: a corrupt or truncated board blob (or a stale document
  // from an old run) must surface as a NAMED refusal to evaluate, never a
  // crash and never a wrong-grid evaluation (the fingerprint check is the
  // one guard between a torn blob and silently merging foreign records).
  const auto fetch_request = [&](const LeaseGrantBody& grant) {
    std::string why;
    for (std::size_t tries = 0; tries < 3; ++tries) {
      if (tries) metrics.request_refetches.add();
      const auto text = transport.fetch(kRequestKey);
      if (!text) {
        why = "coordinator has not published the request document";
        continue;
      }
      try {
        request = SweepRequest::from_json(core::Json::parse(*text));
      } catch (const std::exception& e) {
        request.reset();
        why = std::string("request document does not parse (corrupt board "
                          "blob?): ") +
              e.what();
        continue;
      }
      request_fingerprint = request->fingerprint();
      if (request_fingerprint == grant.fingerprint) return;
      why =
          "request document fingerprint mismatch vs the grant (corrupt "
          "board blob or stale service directory)";
      request.reset();
    }
    throw std::runtime_error("serve: request document unusable after 3 "
                             "fetches: " +
                             why);
  };

  const auto start_lease = [&](const LeaseGrantBody& grant) {
    if (!request || request_fingerprint != grant.fingerprint)
      fetch_request(grant);
    if (request->adaptive)
      throw std::runtime_error(
          "serve: adaptive requests are not lease-schedulable yet — run "
          "the two-pass flow of scripts/sweep_adaptive.sh");
    if (!grant.resume_from.empty())
      copy_attempt_forward(grant.resume_from, grant.output);
    ActiveLease lease;
    lease.grant = grant;
    // Resume is always on: attempt 0 of a restarted coordinator picks up
    // its own previous output, a reassignment picks up the copied prefix,
    // and a fresh stem just starts empty.
    lease.spec = shard::WorkerSpec::from_request(
        *request, grant.lease, grant.shard_count, grant.strategy,
        grant.output, /*resume=*/true);
    const std::size_t chunk =
        std::max<std::size_t>(lease.spec.chunk_records, 1);
    lease.slice_records =
        (options.slice_records + chunk - 1) / chunk * chunk;
    active = std::move(lease);
    metrics.grants.add();
  };

  for (;;) {
    bool saw_message = false;
    for (const Message& msg : transport.poll(options.name)) {
      saw_message = true;
      switch (msg.kind) {
        case MessageKind::kLeaseGrant: {
          // A grant or revoke whose body does not parse is dropped: lease
          // expiry recovers a grant that nobody acts on.
          const auto grant = parse_body<LeaseGrantBody>(msg);
          if (!grant) break;
          try {
            start_lease(*grant);
          } catch (const std::exception& e) {
            active.reset();
            metrics.failed.add();
            safe_send(make_lease_failed(
                options.name, {grant->lease, grant->attempt, e.what()}));
          }
          break;
        }
        case MessageKind::kRevoke: {
          const auto revoke = parse_body<RevokeBody>(msg);
          if (revoke && active && active->grant.lease == revoke->lease &&
              active->grant.attempt == revoke->attempt) {
            // The coordinator expired us and has (or will) reassign the
            // shard; our stem is now the resume source of the next
            // attempt. Drop the lease and rejoin the pool.
            active.reset();
            metrics.revoked.add();
            safe_send(make_register(options.name));
          }
          break;
        }
        case MessageKind::kShutdown: {
          // The deregister repeats the snapshot: one message lost on the
          // wire must not lose this worker's telemetry.
          core::Json doc = obs::capture(false).to_json();
          safe_send(make_snapshot(options.name, doc));
          safe_send(make_deregister(options.name, std::move(doc)));
          out.shutdown = true;
          return out;
        }
        default:
          break;  // coordinator-bound kinds; ignore.
      }
    }
    const std::uint64_t now = now_ms();
    if (saw_message) last_contact = now;

    if (active) {
      if (options.max_slices && out.slices >= options.max_slices) {
        out.crashed = true;  // simulated kill: vanish mid-lease.
        return out;
      }
      shard::WorkerOutcome slice;
      try {
        if (const auto fired = fail::point("service.worker.slice")) {
          if (fired->action == fail::Action::kDelay)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fired->delay_ms));
          else if (fired->action == fail::Action::kIoError)
            throw std::runtime_error(
                "fault injected: service.worker.slice io_error (" +
                active->spec.output + ")");
        }
        // Opened inside the try: a resume scan that refuses the stem (a
        // corrupt or foreign copied-forward attempt) takes the same
        // repair path as a failed step.
        if (!active->run)
          active->run = std::make_unique<shard::ShardRun>(active->spec);
        slice = active->run->step(active->slice_records);
      } catch (const std::exception& e) {
        // A failed step leaves the run unusable; close it before the
        // repair wipes its files.
        active->run.reset();
        if (!active->fresh_retried) {
          // Local repair, once per lease: the slice may have died on a
          // poisoned stem (a corrupt or foreign stream), and re-evaluating
          // from empty is byte-identical by the resume law. Wipe the
          // attempt's stream and try again before involving the
          // coordinator.
          active->fresh_retried = true;
          active->records_done = 0;
          std::error_code ec;
          fs::remove(shard::record_path(active->spec.output), ec);
          metrics.fresh_restarts.add();
          ++out.fresh_restarts;
          continue;
        }
        const LeaseGrantBody grant = active->grant;
        active.reset();
        metrics.failed.add();
        safe_send(make_lease_failed(
            options.name, {grant.lease, grant.attempt, e.what()}));
        continue;
      }
      ++out.slices;
      metrics.slices.add();
      out.records_evaluated += slice.evaluated_records;
      active->records_done = slice.shard_records;
      if (const std::uint64_t t = now_ms();
          t - last_heartbeat >= options.heartbeat_ms)
        send_heartbeat(t);
      if (options.slice_delay_ms)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.slice_delay_ms));
      if (slice.complete) {
        // Close the stream before the coordinator folds it.
        active->run.reset();
        LeaseCompleteBody done;
        done.lease = active->grant.lease;
        done.attempt = active->grant.attempt;
        done.records_path = slice.records_path;
        done.records = slice.shard_records;
        if (!safe_send(make_lease_complete(options.name, done))) {
          // Keep the lease: the shard is fully evaluated, so the next
          // slice reopens it, finds it complete, and retries the send —
          // heartbeats keep the lease alive meanwhile.
          std::this_thread::sleep_for(
              std::chrono::milliseconds(options.poll_ms));
          continue;
        }
        metrics.completed.add();
        ++out.leases_completed;
        active.reset();
      }
      continue;  // no sleep while a lease is in hand.
    }

    if (options.idle_timeout_ms && now - last_contact > options.idle_timeout_ms) {
      out.idle_timeout = true;
      return out;
    }
    if (now - last_heartbeat >= options.heartbeat_ms) send_heartbeat(now);
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }
}

}  // namespace xr::runtime::service
