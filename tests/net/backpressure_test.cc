// Slow-consumer backpressure and eviction under concurrency — the suite
// the tsan CI job runs against the net surface. The headline scenario is
// the DESIGN.md §13 state machine exercised from four sides at once:
// four publisher connections pushing documents, subscriber sessions
// churning (connect/subscribe/close) mid-stream, one stalled reader that
// subscribes and never reads, and a healthy reader draining everything.
// Publishers stay at most a small window of documents ahead of the
// healthy reader, so only the stalled reader can outgrow its outbuf, even
// when the healthy one is descheduled under CPU contention.
// The stalled reader must be EVICTED (bounded cost, BYE(kEvicted)
// best-effort) without the healthy reader losing or duplicating a single
// MATCH, and without ingest stalling. The drop policy variant keeps the
// slow session alive and counts the gap instead.

#include <gtest/gtest.h>

#if defined(__linux__)

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/vitex.h"

namespace vitex::net {
namespace {

std::string Doc(int id) {
  // The hot fragment is padded so a few hundred documents dwarf the
  // kernel + outbuf buffering and the slow-consumer machinery actually
  // engages; the id prefix stays parseable ("h<id>.xxxx...").
  return "<doc><hot><v>h" + std::to_string(id) + "." +
         std::string(256, 'x') + "</v></hot>" + "<beat><v>b" +
         std::to_string(id) + "</v></beat></doc>";
}

class NetBackpressureTest : public ::testing::Test {
 protected:
  void Start(SlowConsumerPolicy policy, size_t outbuf_bytes) {
    vitex::ServiceOptions service_options;
    service_options.shard_count = 2;
    service_options.stream_count = 1;
    service_ = std::make_unique<vitex::Service>(service_options);

    ServerOptions server_options;
    server_options.max_outbuf_bytes = outbuf_bytes;
    server_options.slow_consumer_policy = policy;
    // Small kernel buffers on both sides make the outbuf cap — not TCP
    // autotuning — the binding constraint (same trick as the load
    // driver), so eviction is deterministic at test-sized volumes.
    server_options.so_sndbuf = 8 * 1024;
    auto started = Server::Start(service_.get(), server_options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    server_ = std::move(started).value();
  }

  Result<std::unique_ptr<Client>> Connect(int so_rcvbuf = 0) {
    ClientOptions options;
    options.so_rcvbuf = so_rcvbuf;
    return Client::Connect("127.0.0.1", server_->port(), options);
  }

  std::unique_ptr<vitex::Service> service_;
  std::unique_ptr<Server> server_;
};

TEST_F(NetBackpressureTest, StalledReaderIsEvictedWhileEveryoneElseStreams) {
  Start(SlowConsumerPolicy::kDisconnect, /*outbuf_bytes=*/32 * 1024);
  constexpr int kPublishers = 4;
  constexpr int kDocsPerPublisher = 150;
  constexpr int kDocs = kPublishers * kDocsPerPublisher;
  // Unread documents the healthy reader may fall behind by: 32 MATCH
  // frames of ~300 B (plus one in-flight Publish per publisher) stay well
  // under the 32 KiB cap. The stalled reader still gets all kDocs
  // (~180 KB) and must be evicted.
  constexpr int kWindow = 32;

  // The stalled reader: subscribes to the hot topic, then never reads.
  auto stalled = Connect(/*so_rcvbuf=*/4 * 1024);
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE((*stalled)->Subscribe("//hot/v/text()").ok());

  // The healthy reader: every document, exactly once, in order.
  auto healthy = Connect();
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE((*healthy)->Subscribe("//hot/v/text()").ok());

  // Four publisher connections, each its own thread and session.
  std::atomic<int> published{0};
  std::atomic<int> received{0};
  std::atomic<bool> drain_done{false};
  std::atomic<bool> publish_failed{false};
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&, p] {
      auto client =
          Client::Connect("127.0.0.1", server_->port(), ClientOptions{});
      if (!client.ok()) {
        publish_failed.store(true);
        return;
      }
      for (int d = p; d < kDocs; d += kPublishers) {
        while (published.load() - received.load() >= kWindow &&
               !drain_done.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        if (!(*client)->Publish(Doc(d)).ok()) {
          publish_failed.store(true);
          return;
        }
        published.fetch_add(1);
      }
    });
  }

  // Churn: sessions connecting, subscribing and dying mid-stream, racing
  // the publishers and the eviction.
  std::atomic<bool> stop_churn{false};
  std::thread churner([&] {
    while (!stop_churn.load()) {
      auto client =
          Client::Connect("127.0.0.1", server_->port(), ClientOptions{});
      if (!client.ok()) continue;
      (void)(*client)->Subscribe("//beat/v/text()");
      auto match = (*client)->PollMatch(5);
      (void)match;
      // Session closes here, possibly with matches in flight.
    }
  });

  // Drain the healthy reader while everything else races. A failed poll is
  // asserted only after every thread is joined: returning with joinable
  // threads would terminate the whole test binary.
  std::vector<std::string> got;
  Status poll_status;
  while (got.size() < static_cast<size_t>(kDocs)) {
    auto match = (*healthy)->PollMatch(10000);
    if (!match.ok()) {
      poll_status = match.status();
      break;
    }
    if (!match->has_value()) break;  // 10s of silence: fail below
    got.push_back(std::move((*match)->fragment));
    received.fetch_add(1);
  }
  drain_done.store(true);  // publishers stop waiting on the window
  for (auto& t : publishers) t.join();
  stop_churn.store(true);
  churner.join();
  ASSERT_TRUE(poll_status.ok()) << poll_status.ToString();
  ASSERT_FALSE(publish_failed.load());

  // The healthy reader saw every hot fragment exactly once, in publish
  // order (single stream => per-subscription total order).
  ASSERT_EQ(got.size(), static_cast<size_t>(kDocs));
  std::vector<bool> seen(static_cast<size_t>(kDocs), false);
  for (const std::string& fragment : got) {
    ASSERT_EQ(fragment[0], 'h');
    int id = std::atoi(fragment.c_str() + 1);
    ASSERT_GE(id, 0);
    ASSERT_LT(id, kDocs);
    EXPECT_FALSE(seen[static_cast<size_t>(id)]) << "duplicate " << fragment;
    seen[static_cast<size_t>(id)] = true;
  }

  // The stalled reader was evicted, and the server says why.
  NetStatsSnapshot stats = server_->stats();
  EXPECT_GE(stats.connections_evicted, 1u);
  while (true) {
    auto match = (*stalled)->PollMatch(1000);
    if (!match.ok() || !match->has_value()) break;
  }
  EXPECT_FALSE((*stalled)->connected());
  if ((*stalled)->bye().has_value()) {
    EXPECT_EQ((*stalled)->bye()->reason, ByeReason::kEvicted);
  }
}

TEST_F(NetBackpressureTest, DropPolicyKeepsTheSessionAndCountsTheGap) {
  Start(SlowConsumerPolicy::kDropMatches, /*outbuf_bytes=*/8 * 1024);
  constexpr int kDocs = 400;

  auto slow = Connect(/*so_rcvbuf=*/4 * 1024);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE((*slow)->Subscribe("//hot/v/text()").ok());

  auto publisher = Connect();
  ASSERT_TRUE(publisher.ok());
  for (int d = 0; d < kDocs; ++d) {
    ASSERT_TRUE((*publisher)->Publish(Doc(d)).ok()) << d;
  }
  ASSERT_TRUE(service_->Flush().ok());

  NetStatsSnapshot stats = server_->stats();
  EXPECT_EQ(stats.connections_evicted, 0u);
  EXPECT_GT(stats.matches_dropped, 0u);
  // The gap is visible service-side too.
  EXPECT_GT(service_->stats().results_overflowed, 0u);

  // The session survived: it can drain what did fit and still talk.
  int received = 0;
  while (true) {
    auto match = (*slow)->PollMatch(200);
    ASSERT_TRUE(match.ok()) << match.status().ToString();
    if (!match->has_value()) break;
    ++received;
  }
  EXPECT_GT(received, 0);
  EXPECT_LT(received, kDocs);
  EXPECT_TRUE((*slow)->Ping().ok());

  // Sequence stamps let a client *see* the gap; with one match per
  // document here, dropped + received accounts for every document.
  EXPECT_EQ(static_cast<uint64_t>(received) + stats.matches_dropped,
            static_cast<uint64_t>(kDocs));
}

TEST_F(NetBackpressureTest, EvictionCostIsBoundedByOutbufCap) {
  // High-watermark never exceeds cap + one control frame's worth: the
  // refusal happens BEFORE the append that would cross the cap.
  constexpr size_t kCap = 16 * 1024;
  Start(SlowConsumerPolicy::kDisconnect, kCap);

  auto stalled = Connect(/*so_rcvbuf=*/4 * 1024);
  ASSERT_TRUE(stalled.ok());
  ASSERT_TRUE((*stalled)->Subscribe("//hot/v/text()").ok());

  auto publisher = Connect();
  ASSERT_TRUE(publisher.ok());
  for (int d = 0; d < 400; ++d) {
    ASSERT_TRUE((*publisher)->Publish(Doc(d)).ok()) << d;
  }
  ASSERT_TRUE(service_->Flush().ok());

  NetStatsSnapshot stats = server_->stats();
  EXPECT_GE(stats.connections_evicted, 1u);
  EXPECT_LE(stats.outbuf_high_watermark, kCap);
}

}  // namespace
}  // namespace vitex::net

#else  // !defined(__linux__)

TEST(NetBackpressureTest, SkippedOffLinux) { GTEST_SKIP(); }

#endif  // defined(__linux__)
