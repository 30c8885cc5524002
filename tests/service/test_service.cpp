// In-process integration of the elastic sweep service: a coordinator and
// worker loops joined by an InMemoryTransport (proving the Transport seam
// carries the whole protocol — FsTransport is an implementation detail),
// asserting the headline invariant: the merged summary equals the
// monolithic run_request bitwise, with and without worker churn, in both
// record formats.
#include "runtime/service/coordinator.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/failpoint.h"
#include "core/framework.h"
#include "obs/registry.h"
#include "runtime/service/worker_loop.h"
#include "runtime/sweep_request.h"

namespace xr::runtime::service {
namespace {

namespace fs = std::filesystem;

/// The second Transport backend: mutex-guarded in-process mailboxes. Its
/// existence is the test that the coordinator/worker state machines never
/// reach around the seam (no filesystem assumptions, no FsTransport
/// casts).
class InMemoryTransport : public Transport {
 public:
  void send(const std::string& to, const Message& msg) override {
    validate_endpoint_name(to);
    const std::lock_guard<std::mutex> lock(mu_);
    queues_[to].push_back(msg);
  }
  std::vector<Message> poll(const std::string& inbox) override {
    validate_endpoint_name(inbox);
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<Message> out;
    out.swap(queues_[inbox]);
    return out;
  }
  void publish(const std::string& key, const std::string& content) override {
    validate_endpoint_name(key);
    const std::lock_guard<std::mutex> lock(mu_);
    board_[key] = content;
  }
  std::optional<std::string> fetch(const std::string& key) override {
    validate_endpoint_name(key);
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = board_.find(key);
    if (it == board_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<Message>> queues_;
  std::map<std::string, std::string> board_;
};

/// Prefer tmpfs: every test writes and then deletes whole shard
/// directories, and on a disk mounted with synchronous discard each
/// delete pays TRIM latency.
fs::path fast_tmp_root() {
  std::error_code ec;
  if (fs::is_directory("/dev/shm", ec)) return "/dev/shm";
  return fs::temp_directory_path();
}

class SweepServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fast_tmp_root() /
           ("xr_service_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// A small multi-knob analytical request (12 points, 4-record chunks).
SweepRequest demo_request() {
  SweepRequest request;
  request.grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                     .cpu_clocks_ghz({1.0, 2.0})
                     .frame_sizes({300, 500, 700})
                     .codec_bitrates_mbps({2.0, 8.0})
                     .grid_spec();
  request.execution.threads = 1;
  request.execution.chunk_records = 4;
  return request;
}

WorkerLoopOptions worker_options(const std::string& name) {
  WorkerLoopOptions options;
  options.name = name;
  options.slice_records = 2;
  options.heartbeat_ms = 20;
  options.poll_ms = 2;
  options.idle_timeout_ms = 20000;  // fail-safe, not the expected exit.
  return options;
}

/// Current value of a process-wide obs counter (0 in XR_OBS_DISABLED
/// builds).
std::uint64_t counter(const char* name) { return obs::Counter(name).value(); }

TEST_F(SweepServiceTest, ElasticRunMatchesMonolithicBitwise) {
  SweepRequest request = demo_request();
  // Two-record chunks make every 4-record lease two slices.
  request.execution.chunk_records = 2;
  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  options.lease_timeout_ms = 5000;

  const std::uint64_t resumes0 = counter("shard.worker.resume_events");
  std::vector<std::thread> pool;
  std::vector<WorkerLoopOutcome> outcomes(2);
  for (std::size_t i = 0; i < 2; ++i)
    pool.emplace_back([&, i] {
      outcomes[i] = run_service_worker(
          transport, worker_options("w" + std::to_string(i)));
    });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  for (auto& t : pool) t.join();
  // Each lease opens its shard once and steps it: no slice rescans the
  // stream the lease itself wrote.
  EXPECT_EQ(counter("shard.worker.resume_events"), resumes0);

  const shard::MergedSummary reference = run_request(request);
  std::string why;
  EXPECT_TRUE(shard::summaries_equivalent(result.summary, reference, &why))
      << why;
  EXPECT_EQ(result.summary.grid_size, 12u);
  EXPECT_EQ(result.workers_seen, 2u);
  EXPECT_EQ(result.leases_reassigned, 0u);
  EXPECT_FALSE(result.plan.has_value());
  std::size_t completed = 0, slices = 0;
  for (const auto& out : outcomes) {
    EXPECT_TRUE(out.shutdown);
    completed += out.leases_completed;
    slices += out.slices;
  }
  EXPECT_EQ(completed, 3u);
  EXPECT_EQ(slices, 6u);
}

TEST_F(SweepServiceTest, InLeaseHeartbeatsArePacedByHeartbeatMs) {
  if (!obs::kEnabled)
    GTEST_SKIP() << "telemetry stubbed out (XR_OBS_DISABLED)";
  SweepRequest request = demo_request();
  request.execution.chunk_records = 1;  // 12 one-record slices
  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  options.lease_timeout_ms = 20000;
  WorkerLoopOptions worker = worker_options("w0");
  worker.slice_records = 1;
  worker.heartbeat_ms = 2000;  // far longer than any slice here

  const std::uint64_t heartbeats0 = counter("service.worker.heartbeats_sent");
  const std::uint64_t slices0 = counter("service.worker.slices");
  WorkerLoopOutcome out;
  std::thread thread([&] { out = run_service_worker(transport, worker); });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  thread.join();

  EXPECT_EQ(out.slices, 12u);
  EXPECT_EQ(counter("service.worker.slices") - slices0, 12u);
  EXPECT_LT(counter("service.worker.heartbeats_sent") - heartbeats0, 12u)
      << "the worker heartbeats after every slice instead of every "
         "heartbeat_ms";
  std::string why;
  EXPECT_TRUE(
      shard::summaries_equivalent(result.summary, run_request(request), &why))
      << why;
}

TEST_F(SweepServiceTest, WorkerCrashAndLateJoinerKeepOutputBitwise) {
  SweepRequest request = demo_request();
  // Chunk == slice so the crash leaves a flushed, chunk-aligned 2-of-4
  // record prefix for the reassigned attempt to resume.
  request.execution.chunk_records = 2;
  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  // Long enough that a slice can never be mistaken for a death even on a
  // slow filesystem (a tight timeout here turns into a revoke/re-register
  // ping-pong that burns attempts); the crashed worker's expiry just
  // costs the test this one wait.
  options.lease_timeout_ms = 1500;

  // w0 vanishes after ONE slice — mid-shard, with a flushed 2-of-4-record
  // prefix on disk — no deregister, exactly like a kill -9.
  WorkerLoopOptions crash = worker_options("w0");
  crash.max_slices = 1;
  std::vector<std::thread> pool;
  WorkerLoopOutcome crashed, late;
  pool.emplace_back(
      [&] { crashed = run_service_worker(transport, crash); });
  pool.emplace_back([&] {
    // Late joiner: shows up after the crash is in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    late = run_service_worker(transport, worker_options("w1"));
  });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  for (auto& t : pool) t.join();

  const shard::MergedSummary reference = run_request(request);
  std::string why;
  EXPECT_TRUE(shard::summaries_equivalent(result.summary, reference, &why))
      << why;
  EXPECT_TRUE(crashed.crashed);
  EXPECT_TRUE(late.shutdown);
  EXPECT_GE(result.leases_reassigned, 1u);
  EXPECT_EQ(result.workers_seen, 2u);
  // The reassignment left an attempt-1 stem next to the dead attempt-0
  // resume source.
  bool saw_attempt1 = false;
  for (const auto& entry : fs::directory_iterator(dir_ / "shards"))
    if (entry.path().filename().string().find(".a1.xrb") !=
        std::string::npos)
      saw_attempt1 = true;
  EXPECT_TRUE(saw_attempt1) << "no reassigned attempt stem was written";
}

TEST_F(SweepServiceTest, ExpiredButLiveWorkerStillGetsTheShutdown) {
  // w0 finishes its first shard, then stalls past the lease timeout: the
  // coordinator presumes it dead and w1 drains every shard. w0 is idle
  // and alive when the sweep ends, and must be told to exit rather than
  // wait out its idle timeout.
  const SweepRequest request = demo_request();
  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  options.lease_timeout_ms = 200;
  WorkerLoopOptions straggler = worker_options("w0");
  straggler.slice_delay_ms = 600;
  straggler.idle_timeout_ms = 3000;

  WorkerLoopOutcome slow, fast;
  std::thread t0([&] { slow = run_service_worker(transport, straggler); });
  std::thread t1([&] {
    // Joins once w0 surely holds a lease.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fast = run_service_worker(transport, worker_options("w1"));
  });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  t0.join();
  t1.join();

  EXPECT_GE(result.leases_reassigned, 1u);
  EXPECT_TRUE(fast.shutdown);
  EXPECT_TRUE(slow.shutdown) << "the presumed-dead worker was never told "
                                "the sweep is over";
  EXPECT_FALSE(slow.idle_timeout);
  std::string why;
  EXPECT_TRUE(
      shard::summaries_equivalent(result.summary, run_request(request), &why))
      << why;
}

TEST_F(SweepServiceTest, SingleWorkerDrainsAllShards) {
  const SweepRequest request = demo_request();
  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 4;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;

  WorkerLoopOutcome out;
  std::thread worker(
      [&] { out = run_service_worker(transport, worker_options("solo")); });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  worker.join();

  EXPECT_EQ(out.leases_completed, 4u);
  EXPECT_EQ(result.workers_seen, 1u);
  const shard::MergedSummary reference = run_request(request);
  std::string why;
  EXPECT_TRUE(shard::summaries_equivalent(result.summary, reference, &why))
      << why;
}

/// Loses every snapshot message on the wire.
class SnapshotDroppingTransport : public InMemoryTransport {
 public:
  void send(const std::string& to, const Message& msg) override {
    if (msg.kind != MessageKind::kSnapshot) InMemoryTransport::send(to, msg);
  }
};

TEST_F(SweepServiceTest, AggregatedSnapshotCarriesWorkerLabels) {
  if (!obs::kEnabled)
    GTEST_SKIP() << "telemetry stubbed out (XR_OBS_DISABLED)";
  const SweepRequest request = demo_request();
  InMemoryTransport reliable;
  // The deregister's copy of the snapshot must stand in for a lost one.
  SnapshotDroppingTransport lossy;
  for (InMemoryTransport* transport :
       {&reliable, static_cast<InMemoryTransport*>(&lossy)}) {
    SCOPED_TRACE(transport == &lossy ? "snapshot message lost" : "reliable");
    CoordinatorOptions options;
    options.shards = 2;
    options.shard_dir =
        (dir_ / (transport == &lossy ? "lossy" : "reliable")).string();
    options.poll_ms = 2;

    std::thread worker([&] {
      (void)run_service_worker(*transport, worker_options("w0"));
    });
    const CoordinatorResult result =
        run_coordinator(*transport, request, options);
    worker.join();

    bool saw_labeled = false, saw_local = false;
    for (const auto& [name, value] : result.metrics.metrics.counters) {
      if (name.find("{worker=\"w0\"}") != std::string::npos)
        saw_labeled = true;
      if (name == "service.coordinator.leases_completed") saw_local = true;
    }
    EXPECT_TRUE(saw_labeled)
        << "aggregated snapshot carries no worker-labeled metrics";
    EXPECT_TRUE(saw_local)
        << "aggregated snapshot lost the coordinator's own metrics";
  }
}

TEST_F(SweepServiceTest, AdaptiveRequestsAreRefusedByName) {
  SweepRequest request = demo_request();
  request.evaluator.kind = shard::EvaluatorKind::kGroundTruth;
  request.evaluator.frames_per_point = 4;
  AdaptiveSpec adaptive;
  adaptive.coarse_frames = 2;
  adaptive.fine_frames = 4;
  request.adaptive = adaptive;
  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 2;
  options.shard_dir = (dir_ / "shards").string();
  try {
    (void)run_coordinator(transport, request, options);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("adaptive"), std::string::npos);
  }
}

TEST_F(SweepServiceTest, IdleWorkerExitsOnIdleTimeoutWithoutALease) {
  // No coordinator at all: the worker registers into the void, hears
  // nothing, and must exit via idle_timeout_ms — holding no lease, having
  // evaluated nothing — instead of spinning forever.
  InMemoryTransport transport;
  WorkerLoopOptions options = worker_options("lonely");
  options.idle_timeout_ms = 80;
  const auto t0 = std::chrono::steady_clock::now();
  const WorkerLoopOutcome out = run_service_worker(transport, options);
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_TRUE(out.idle_timeout);
  EXPECT_FALSE(out.shutdown);
  EXPECT_FALSE(out.crashed);
  EXPECT_EQ(out.leases_completed, 0u);
  EXPECT_EQ(out.records_evaluated, 0u);
  EXPECT_GE(waited.count(), 80);
  EXPECT_LT(waited.count(), 10000) << "idle timeout failed to bound the wait";
}

TEST_F(SweepServiceTest, WorkerRefusesGrantsAgainstUnusableRequestDocuments) {
  // Fuzz the request board: the main thread plays coordinator and offers
  // grants while the board blob is truncated, garbage, or a
  // valid-but-different request. Every offer must come back as a NAMED
  // lease_failed — the worker must never evaluate a grid it cannot verify
  // against the grant fingerprint.
  const SweepRequest request = demo_request();
  const std::string good = request.to_json().dump();
  InMemoryTransport transport;

  WorkerLoopOptions wopts = worker_options("fz");
  wopts.idle_timeout_ms = 30000;
  WorkerLoopOutcome out;
  std::thread worker([&] { out = run_service_worker(transport, wopts); });

  LeaseGrantBody grant;
  grant.lease = 0;
  grant.attempt = 0;
  grant.shard_count = 2;
  grant.output = (dir_ / "shards" / "shard0.a0").string();
  grant.fingerprint = request.fingerprint();

  SweepRequest other = demo_request();  // different axes → different print.
  other.grid = SweepSpec(core::make_remote_scenario(500, 2.0))
                   .cpu_clocks_ghz({1.0, 2.5})
                   .frame_sizes({300, 500, 700})
                   .codec_bitrates_mbps({2.0, 8.0})
                   .grid_spec();
  const struct {
    const char* label;
    std::string board;
    const char* expect;  // substring of the lease_failed error.
  } kCases[] = {
      {"truncated", good.substr(0, good.size() / 2), "does not parse"},
      {"garbage", "\x01\x02{{{nope", "does not parse"},
      {"empty", "", "does not parse"},
      {"wrong_request", other.to_json().dump(), "fingerprint mismatch"},
  };
  for (const auto& fuzz : kCases) {
    transport.publish(kRequestKey, fuzz.board);
    transport.send("fz", make_lease_grant(grant));
    // Wait for the worker's verdict.
    std::vector<Message> inbox;
    for (int spin = 0; spin < 2000 && inbox.empty(); ++spin) {
      inbox = transport.poll(kCoordinatorEndpoint);
      std::vector<Message> kept;
      for (Message& m : inbox)
        if (m.kind == MessageKind::kLeaseFailed) kept.push_back(std::move(m));
      inbox = std::move(kept);
      if (inbox.empty())
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(inbox.size(), 1u) << fuzz.label;
    const auto failed = LeaseFailedBody::from_json(inbox[0].body);
    EXPECT_EQ(failed.lease, 0u) << fuzz.label;
    EXPECT_NE(failed.error.find(fuzz.expect), std::string::npos)
        << fuzz.label << ": " << failed.error;
  }
  transport.send("fz", make_shutdown());
  worker.join();
  EXPECT_TRUE(out.shutdown);
  EXPECT_EQ(out.records_evaluated, 0u)
      << "the worker evaluated records off an unverifiable request";
  EXPECT_FALSE(fs::exists(dir_ / "shards"))
      << "a refused grant still wrote shard output";
}

/// A message of `kind` from `from` carrying `body` verbatim.
Message raw_message(MessageKind kind, const std::string& from,
                    core::Json body) {
  Message msg;
  msg.kind = kind;
  msg.from = from;
  msg.body = std::move(body);
  return msg;
}

/// A snapshot from a build whose snapshot schema moved on.
Message skewed_snapshot(const std::string& from) {
  core::Json doc = core::Json::object();
  doc.set("schema", "xr.obs.snapshot.v2");
  return make_snapshot(from, std::move(doc));
}

/// Slips a skewed snapshot from `from` into the coordinator's mailbox
/// ahead of the first shutdown, so it lands in the drain loop.
class SkewedDrainSnapshotTransport : public InMemoryTransport {
 public:
  explicit SkewedDrainSnapshotTransport(std::string from)
      : from_(std::move(from)) {}
  void send(const std::string& to, const Message& msg) override {
    if (msg.kind == MessageKind::kShutdown && !injected_.exchange(true))
      InMemoryTransport::send(kCoordinatorEndpoint, skewed_snapshot(from_));
    InMemoryTransport::send(to, msg);
  }

 private:
  std::string from_;
  std::atomic<bool> injected_{false};
};

TEST_F(SweepServiceTest, MalformedBodiesCostAMessageNotTheSweep) {
  // Valid envelopes with bodies that do not parse, all from the real
  // worker's name: the coordinator drops each one as stale and the sweep
  // still merges bitwise.
  const SweepRequest request = demo_request();
  SkewedDrainSnapshotTransport transport("w0");
  transport.send(kCoordinatorEndpoint, make_register("w0"));
  Message heartbeat = make_heartbeat("w0", HeartbeatBody{});
  heartbeat.body.set("skew", true);  // a field this build does not know
  transport.send(kCoordinatorEndpoint, heartbeat);
  core::Json complete = core::Json::object();  // no records_path
  complete.set("lease", std::size_t{0});
  complete.set("attempt", std::size_t{0});
  complete.set("records", std::size_t{4});
  transport.send(kCoordinatorEndpoint,
                 raw_message(MessageKind::kLeaseComplete, "w0", complete));
  core::Json failed = core::Json::object();  // no lease
  failed.set("error", "skewed");
  transport.send(kCoordinatorEndpoint,
                 raw_message(MessageKind::kLeaseFailed, "w0", failed));
  transport.send(kCoordinatorEndpoint, skewed_snapshot("w0"));

  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  options.lease_timeout_ms = 5000;
  const std::uint64_t stale0 = counter("service.coordinator.stale_messages");
  WorkerLoopOutcome out;
  std::thread worker(
      [&] { out = run_service_worker(transport, worker_options("w0")); });
  std::optional<CoordinatorResult> result;
  std::string error;
  try {
    result = run_coordinator(transport, request, options);
  } catch (const std::exception& e) {
    error = e.what();
    transport.send("w0", make_shutdown());
  }
  worker.join();

  ASSERT_TRUE(result.has_value()) << "run_coordinator threw: " << error;
  EXPECT_TRUE(out.shutdown);
  std::string why;
  EXPECT_TRUE(shard::summaries_equivalent(result->summary,
                                          run_request(request), &why))
      << why;
  if (obs::kEnabled) {
    EXPECT_GE(counter("service.coordinator.stale_messages") - stale0, 5u);
  }
}

TEST_F(SweepServiceTest, WorkerDropsMalformedGrantsAndRevokes) {
  // A grant without its fingerprint and a revoke without its lease reach
  // a lone worker ahead of the shutdown. The worker drops both (lease
  // expiry recovers a grant nobody acts on) and still hears the shutdown.
  InMemoryTransport transport;
  core::Json grant = core::Json::object();
  grant.set("lease", std::size_t{0});
  grant.set("attempt", std::size_t{0});
  grant.set("shard_count", std::size_t{2});
  grant.set("strategy", "range");
  grant.set("output", (dir_ / "shards" / "shard0.a0").string());
  transport.send("solo", raw_message(MessageKind::kLeaseGrant,
                                     kCoordinatorEndpoint, grant));
  core::Json revoke = core::Json::object();
  revoke.set("attempt", std::size_t{0});
  transport.send("solo", raw_message(MessageKind::kRevoke,
                                     kCoordinatorEndpoint, revoke));
  transport.send("solo", make_shutdown());

  WorkerLoopOutcome out;
  EXPECT_NO_THROW(out = run_service_worker(transport, worker_options("solo")));
  EXPECT_TRUE(out.shutdown);
  EXPECT_EQ(out.records_evaluated, 0u);
  EXPECT_FALSE(fs::exists(dir_ / "shards"));
}

TEST_F(SweepServiceTest, InjectedFaultsDoNotPerturbTheMergedBytes) {
  if (!fail::kEnabled) GTEST_SKIP() << "fault layer compiled out";
  const SweepRequest request = demo_request();
  // Reference FIRST: the process-wide schedule must not fire inside the
  // monolithic run.
  const shard::MergedSummary reference = run_request(request);

  // One transient fault on each side of the protocol: the first sink
  // flush dies (worker-side -> one fresh restart), and the first fold
  // read dies (coordinator-side -> absorbed by fold_retries).
  fail::FaultSchedule schedule;
  schedule.seed = 1;
  fail::FaultRule flush;
  flush.point = "shard.sink.flush";
  flush.trigger.kind = fail::Trigger::Kind::kNth;
  flush.trigger.n = 1;
  flush.action = fail::Action::kIoError;
  fail::FaultRule fold;
  fold.point = "service.coordinator.fold";
  fold.trigger.kind = fail::Trigger::Kind::kNth;
  fold.trigger.n = 1;
  fold.action = fail::Action::kIoError;
  schedule.rules = {flush, fold};
  fail::load_schedule(schedule);

  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  options.lease_timeout_ms = 5000;
  WorkerLoopOutcome out;
  std::thread worker([&] {
    out = run_service_worker(transport, worker_options("chaos"));
  });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  worker.join();
  fail::clear_schedule();

  std::string why;
  EXPECT_TRUE(shard::summaries_equivalent(result.summary, reference, &why))
      << why;
  EXPECT_GE(out.fresh_restarts, 1u)
      << "the flush fault never exercised the fresh-restart repair";
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_FALSE(result.partial_document.has_value());
}

TEST_F(SweepServiceTest, ExhaustedShardIsQuarantinedIntoAPartialDocument) {
  if (!fail::kEnabled) GTEST_SKIP() << "fault layer compiled out";
  const SweepRequest request = demo_request();

  // Shard 0's sink flush fails on every try the protocol allows it:
  // attempt 0 (slice + fresh restart) and attempt 1 (slice + fresh
  // restart) = 4 firings, then the rule exhausts so the remaining shards
  // complete cleanly.
  fail::FaultSchedule schedule;
  schedule.seed = 1;
  fail::FaultRule flush;
  flush.point = "shard.sink.flush";
  flush.trigger.kind = fail::Trigger::Kind::kEvery;
  flush.trigger.n = 1;
  flush.action = fail::Action::kIoError;
  flush.max_fires = 4;
  schedule.rules = {flush};
  fail::load_schedule(schedule);

  InMemoryTransport transport;
  CoordinatorOptions options;
  options.shards = 3;
  options.shard_dir = (dir_ / "shards").string();
  options.poll_ms = 2;
  options.lease_timeout_ms = 5000;
  options.max_attempts = 2;
  options.allow_partial = true;
  WorkerLoopOutcome out;
  std::thread worker([&] {
    out = run_service_worker(transport, worker_options("q"));
  });
  const CoordinatorResult result =
      run_coordinator(transport, request, options);
  worker.join();
  fail::clear_schedule();

  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0], 0u);
  // The completed subset still merged: 2 of 3 range shards of 12 points.
  EXPECT_EQ(result.summary.grid_size, 12u);
  EXPECT_EQ(result.summary.evaluated, 8u);
  EXPECT_FALSE(result.plan.has_value());

  ASSERT_TRUE(result.partial_document.has_value());
  const core::Json& doc = *result.partial_document;
  EXPECT_EQ(doc.at("schema").as_string(),
            std::string(kPartialDocumentSchema));
  EXPECT_EQ(doc.at("total_shards").as_size(), 3u);
  const auto& quarantined = doc.at("quarantined").as_array();
  ASSERT_EQ(quarantined.size(), 1u);
  EXPECT_EQ(quarantined[0].at("shard").as_size(), 0u);
  EXPECT_EQ(quarantined[0].at("attempts").as_size(), 2u);
  EXPECT_NE(quarantined[0].at("last_error").as_string().find("fault injected"),
            std::string::npos)
      << quarantined[0].at("last_error").as_string();
  EXPECT_EQ(doc.at("completed").as_array().size(), 2u);
  // The embedded summary is the partial merge itself.
  EXPECT_EQ(doc.at("summary").at("evaluated").as_size(), 8u);
}

TEST_F(SweepServiceTest, CoordinatorValidatesOptions) {
  InMemoryTransport transport;
  const SweepRequest request = demo_request();
  CoordinatorOptions no_shards;
  no_shards.shards = 0;
  no_shards.shard_dir = (dir_ / "shards").string();
  EXPECT_THROW((void)run_coordinator(transport, request, no_shards),
               std::invalid_argument);
  CoordinatorOptions no_dir;
  no_dir.shard_dir.clear();
  EXPECT_THROW((void)run_coordinator(transport, request, no_dir),
               std::invalid_argument);
}

}  // namespace
}  // namespace xr::runtime::service
