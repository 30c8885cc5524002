// Tests of the benchmark's own logic: the percentile rule, span self time,
// the seeded input generators, and the transport decorator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "recording_transport.h"
#include "runtime/plan_index.h"
#include "stats.h"

namespace {

using namespace xrbench;
namespace svc = xr::runtime::service;

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

// ---- percentile rule --------------------------------------------------------

TEST(PercentileRule, NearestRankLeavesExactlyTheTailBeyond) {
  const auto p99 = percentile(one_to(1000), 100);
  ASSERT_TRUE(p99);
  EXPECT_EQ(p99->value, 990.0);
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);
  EXPECT_DOUBLE_EQ(p99->percent(), 99.0);
  EXPECT_EQ(percentile(one_to(1000), 2)->value, 500.0);
  EXPECT_FALSE(percentile({}, 100));
}

TEST(PercentileRule, ReportsTheHighestPercentileWithTenSamplesBeyond) {
  const auto at_1000 = tail_percentile(one_to(1000));
  ASSERT_TRUE(at_1000);
  EXPECT_EQ(at_1000->denominator, 100u);  // p99.9 would have 1 beyond
  EXPECT_EQ(at_1000->value, 990.0);
  EXPECT_EQ(at_1000->beyond, 10u);
  EXPECT_EQ(at_1000->samples, 1000u);

  const auto at_9999 = tail_percentile(one_to(9999));
  ASSERT_TRUE(at_9999);
  EXPECT_EQ(at_9999->denominator, 100u);  // p99.9 has only 9 beyond
  EXPECT_EQ(at_9999->beyond, 99u);

  const auto at_10000 = tail_percentile(one_to(10000));
  ASSERT_TRUE(at_10000);
  EXPECT_EQ(at_10000->denominator, 1000u);
  EXPECT_EQ(at_10000->value, 9990.0);
  EXPECT_EQ(at_10000->beyond, 10u);
}

TEST(PercentileRule, TooFewSamplesHaveNoTail) {
  EXPECT_FALSE(tail_percentile(one_to(19)));
  const auto p50 = tail_percentile(one_to(20));
  ASSERT_TRUE(p50);
  EXPECT_EQ(p50->denominator, 2u);
  EXPECT_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->beyond, 10u);
}

TEST(PercentileRule, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(PercentileRule, FastestIsTheMinimumAndZeroWhenEmpty) {
  EXPECT_EQ(fastest(one_to(100)), 1.0);
  EXPECT_EQ(fastest({}), 0.0);
}

// ---- span self time ---------------------------------------------------------

xr::obs::SpanRecord span(std::uint64_t id, std::uint64_t parent,
                         std::string name, std::uint64_t start,
                         std::uint64_t end) {
  xr::obs::SpanRecord s;
  s.id = id;
  s.parent_id = parent;
  s.name = std::move(name);
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, OverlappingChildrenAreSubtractedOnce) {
  const std::vector<xr::obs::SpanRecord> spans = {
      span(1, 0, "parent[q=1]", 0, 100),
      span(2, 1, "child[q=1]", 10, 40),
      span(3, 1, "child[q=1]", 30, 60),    // overlaps the first child
      span(4, 1, "child[q=1]", 90, 120),   // runs past the parent's end
      span(5, 2, "grandchild", 15, 25),
      span(6, 0, "other", 500, 510),
  };
  const auto self = self_times_us(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100u - 50u - 10u);  // [10,60) and [90,100) covered
  EXPECT_EQ(self[1], 20u);               // minus its grandchild
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 10u);
  EXPECT_EQ(self[5], 10u);
}

TEST(SelfTime, FamiliesDropTheRequestId) {
  EXPECT_EQ(span_family("bench.gt.point[i=17]"), "bench.gt.point");
  EXPECT_EQ(span_family("kernel.prepare"), "kernel.prepare");
  const auto totals = family_totals({span(1, 0, "a[q=1]", 0, 10),
                                     span(2, 0, "a[q=2]", 20, 40),
                                     span(3, 2, "b", 25, 35)});
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].family, "a");
  EXPECT_EQ(totals[0].count, 2u);
  EXPECT_DOUBLE_EQ(totals[0].total_ms, 0.030);
  EXPECT_DOUBLE_EQ(totals[0].self_ms, 0.020);
  EXPECT_EQ(totals[1].family, "b");
}

// ---- seeded generators ------------------------------------------------------

TEST(Generators, SameSeedSameInputsOtherSeedOtherInputs) {
  const auto spec = index_spec(Size::kCanary);
  const auto a = make_query_stream(spec, 11, 20);
  const auto b = make_query_stream(spec, 11, 20);
  const auto c = make_query_stream(spec, 12, 20);
  EXPECT_EQ(a.keys, b.keys);
  EXPECT_EQ(a.tiers, b.tiers);
  EXPECT_EQ(a.sampled, b.sampled);
  EXPECT_NE(a.keys, c.keys);

  EXPECT_EQ(gt_request(5, Size::kFull).to_json().dump(),
            gt_request(5, Size::kFull).to_json().dump());
  EXPECT_NE(gt_request(5, Size::kFull).fingerprint(),
            gt_request(6, Size::kFull).fingerprint());
  EXPECT_EQ(gt_request(5, Size::kFull).grid.build().size(), 306u);

  EXPECT_EQ(offload_request(5, Size::kFull).fingerprint(),
            offload_request(5, Size::kFull).fingerprint());
  EXPECT_NE(offload_request(5, Size::kFull).fingerprint(),
            offload_request(6, Size::kFull).fingerprint());
  EXPECT_EQ(offload_request(5, Size::kFull).grid.build().size(), 50'688u);
  EXPECT_EQ(offload_request(5, Size::kCanary).grid.build().size(), 25'344u);
}

TEST(Generators, ContextFrameSizesAreDistinctSortedAndOnTheGrid) {
  const auto sizes = context_frame_sizes(3, 8);
  ASSERT_EQ(sizes.size(), 8u);
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  EXPECT_EQ(std::adjacent_find(sizes.begin(), sizes.end()), sizes.end());
  for (const double s : sizes) {
    EXPECT_GE(s, 300.0);
    EXPECT_LE(s, 700.0);
    EXPECT_EQ(std::fmod(s, 5.0), 0.0);
  }
  EXPECT_NE(context_frame_sizes(3, 8), context_frame_sizes(4, 8));
}

TEST(Generators, TierMixIsExactInEveryBlock) {
  const auto stream = make_query_stream(index_spec(Size::kFull), 9, 40);
  ASSERT_EQ(stream.size(), 40 * kMixBlock);
  for (std::size_t b = 0; b < 40; ++b) {
    std::map<Tier, std::size_t> count;
    for (std::size_t q = b * kMixBlock; q < (b + 1) * kMixBlock; ++q)
      ++count[stream.tiers[q]];
    EXPECT_EQ(count[Tier::kExact], kMixExact);
    EXPECT_EQ(count[Tier::kSnap], kMixSnap);
    EXPECT_EQ(count[Tier::kComputed], kMixComputed);
  }
}

TEST(Generators, EveryQueryResolvesToItsGeneratedTierAndCell) {
  const auto spec = index_spec(Size::kFull);
  const auto stream = make_query_stream(spec, 21, 200);
  // Lookups need only the axes; an index over a one-candidate space
  // builds in milliseconds and answers exact_cell/nearest_cell the same.
  auto small = spec;
  small.space.omega_c_grid = {1.0};
  small.space.local_cnns = {"MobileNetv2_300_Float"};
  small.space.edge_cnns = {"YoloV3"};
  small.space.edge_counts = {1};
  small.space.codec_bitrates_mbps = {4.0};
  small.space.include_remote = false;
  const auto index = xr::runtime::OffloadPlanIndex::build(small);
  std::vector<double> key;
  for (std::size_t q = 0; q < stream.size(); ++q) {
    stream.key_into(q, key);
    const auto exact = index.exact_cell(key);
    const auto nearest = index.nearest_cell(key);
    switch (stream.tiers[q]) {
      case Tier::kExact:
        ASSERT_TRUE(exact) << q;
        EXPECT_EQ(*exact, stream.cells[q]);
        break;
      case Tier::kSnap:
        ASSERT_FALSE(exact) << q;
        EXPECT_LE(nearest.worst_gap, spec.max_relative_gap) << q;
        EXPECT_EQ(nearest.cell, stream.cells[q]);
        break;
      case Tier::kComputed:
        ASSERT_FALSE(exact) << q;
        EXPECT_GT(nearest.worst_gap, spec.max_relative_gap) << q;
        break;
    }
  }
}

// ---- transport decorator ----------------------------------------------------

/// In-memory transport that records what reaches it.
class FakeTransport final : public svc::Transport {
 public:
  void send(const std::string& to, const svc::Message& msg) override {
    sent.emplace_back(to, msg.to_json().dump());
    inbox[to].push_back(msg);
  }
  std::vector<svc::Message> poll(const std::string& name) override {
    ++polls;
    return std::exchange(inbox[name], {});
  }
  void publish(const std::string& key, const std::string& content) override {
    board[key] = content;
  }
  std::optional<std::string> fetch(const std::string& key) override {
    const auto it = board.find(key);
    if (it == board.end()) return std::nullopt;
    return it->second;
  }

  std::vector<std::pair<std::string, std::string>> sent;
  std::map<std::string, std::vector<svc::Message>> inbox;
  std::map<std::string, std::string> board;
  int polls = 0;
};

svc::LeaseGrantBody grant(std::size_t lease, std::size_t attempt) {
  svc::LeaseGrantBody body;
  body.lease = lease;
  body.attempt = attempt;
  body.shard_count = 4;
  body.output = "out/shard" + std::to_string(lease);
  body.fingerprint = 42;
  return body;
}

TEST(RecordingTransport, ForwardsEveryCallUnchanged) {
  FakeTransport inner;
  TransportLog log;
  RecordingTransport t(inner, log, "coordinator");

  const svc::Message msg = svc::make_lease_grant(grant(2, 1));
  t.send("w0", msg);
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(inner.sent[0].first, "w0");
  EXPECT_EQ(inner.sent[0].second, msg.to_json().dump());

  const auto polled = t.poll("w0");
  ASSERT_EQ(polled.size(), 1u);
  EXPECT_EQ(polled[0].to_json().dump(), msg.to_json().dump());
  EXPECT_TRUE(t.poll("w0").empty());
  EXPECT_EQ(inner.polls, 2);

  t.publish("request.json", "{\"x\":1}");
  EXPECT_EQ(inner.board.at("request.json"), "{\"x\":1}");
  EXPECT_EQ(t.fetch("request.json"), std::optional<std::string>("{\"x\":1}"));
  EXPECT_EQ(t.fetch("missing"), std::nullopt);

  const auto events = log.events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].op, TransportOp::kSend);
  EXPECT_EQ(events[0].endpoint, "w0");
  EXPECT_EQ(events[0].participant, "coordinator");
  EXPECT_EQ(events[0].bytes, msg.to_json().dump().size());
  ASSERT_EQ(events[0].messages.size(), 1u);
  EXPECT_EQ(events[0].messages[0].kind, svc::MessageKind::kLeaseGrant);
  EXPECT_EQ(events[0].messages[0].lease, std::optional<std::size_t>(2));
  EXPECT_EQ(events[0].messages[0].attempt, std::optional<std::size_t>(1));
  EXPECT_EQ(events[1].op, TransportOp::kPoll);
  EXPECT_EQ(events[1].messages.size(), 1u);
  EXPECT_TRUE(events[2].messages.empty());
  EXPECT_EQ(events[3].op, TransportOp::kPublish);
  EXPECT_EQ(events[3].bytes, 7u);
  EXPECT_EQ(events[4].op, TransportOp::kFetch);
  EXPECT_EQ(events[5].bytes, 0u);
  for (const auto& e : events) EXPECT_LE(e.start_ms, e.end_ms);
}

TEST(RecordingTransport, RoundTripsThroughTheFilesystemTransport) {
  const std::string root =
      (std::filesystem::current_path() / "xrbench_transport_test").string();
  std::filesystem::remove_all(root);
  svc::FsTransport coordinator_fs(root), worker_fs(root);
  TransportLog log;
  RecordingTransport coordinator(coordinator_fs, log, "coordinator");
  RecordingTransport worker(worker_fs, log, "w0");

  svc::LeaseCompleteBody done;
  done.lease = 3;
  done.records_path = "out/shard3.a0.xrb";
  done.records = 12;
  const svc::Message msg = svc::make_lease_complete("w0", done);
  worker.send(svc::kCoordinatorEndpoint, msg);
  const auto got = coordinator.poll(svc::kCoordinatorEndpoint);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].to_json().dump(), msg.to_json().dump());
  std::filesystem::remove_all(root);
}

TEST(RecordingTransport, LeaseTimelinePairsGrantsWithCompletions) {
  FakeTransport inner;
  TransportLog log;
  RecordingTransport coordinator(inner, log, "coordinator");
  RecordingTransport worker(inner, log, "w0");
  for (std::size_t lease = 0; lease < 2; ++lease) {
    coordinator.send("w0", svc::make_lease_grant(grant(lease, 0)));
    (void)worker.poll("w0");
    svc::LeaseCompleteBody done;
    done.lease = lease;
    done.records_path = "shard" + std::to_string(lease);
    worker.send(svc::kCoordinatorEndpoint,
                svc::make_lease_complete("w0", done));
    (void)coordinator.poll(svc::kCoordinatorEndpoint);
  }
  const auto leases = lease_timeline(log.events());
  ASSERT_EQ(leases.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(leases[i].lease, i);
    EXPECT_GE(leases[i].granted_ms, 0.0);
    EXPECT_GE(leases[i].completed_ms, leases[i].granted_ms);
    EXPECT_GE(leases[i].received_ms, leases[i].completed_ms);
    EXPECT_EQ(leases[i].records_path, "shard" + std::to_string(i));
  }
}

}  // namespace
