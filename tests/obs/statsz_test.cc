// Prometheus serializer golden test and the live /statsz exposition of a
// running vitex::Service (the ISSUE 7 acceptance pin; the Statsz CI regex
// picks this file up in the asan-ubsan and tsan jobs).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "service/vitex.h"

namespace vitex {
namespace {

// The serializer's exact output is contract: dashboards and the statsz
// smoke parser consume it. Pin every byte.
TEST(ObsStatszTest, PrometheusGoldenText) {
  obs::Registry registry;
  obs::Counter* docs = registry.AddCounter("vitex_test_docs_total",
                                           "Documents counted.");
  obs::Gauge* depth =
      registry.AddGauge("vitex_test_depth", "Queue depth.", {{"shard", "0"}});
  obs::Histogram* lat =
      registry.AddHistogram("vitex_test_lat_nanos", "Latency.");
  docs->Add(3);
  depth->Set(7);
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull}) lat->Record(v);

  const char* kGolden =
      "# HELP vitex_test_docs_total Documents counted.\n"
      "# TYPE vitex_test_docs_total counter\n"
      "vitex_test_docs_total 3\n"
      "# HELP vitex_test_depth Queue depth.\n"
      "# TYPE vitex_test_depth gauge\n"
      "vitex_test_depth{shard=\"0\"} 7\n"
      "# HELP vitex_test_lat_nanos Latency.\n"
      "# TYPE vitex_test_lat_nanos histogram\n"
      "vitex_test_lat_nanos_bucket{le=\"0\"} 1\n"
      "vitex_test_lat_nanos_bucket{le=\"1\"} 2\n"
      "vitex_test_lat_nanos_bucket{le=\"3\"} 4\n"
      "vitex_test_lat_nanos_bucket{le=\"7\"} 5\n"
      "vitex_test_lat_nanos_bucket{le=\"1023\"} 6\n"
      "vitex_test_lat_nanos_bucket{le=\"+Inf\"} 6\n"
      "vitex_test_lat_nanos_sum 1010\n"
      "vitex_test_lat_nanos_count 6\n"
      "# TYPE vitex_test_lat_nanos_p50 gauge\n"
      "vitex_test_lat_nanos_p50 2.5\n"
      "# TYPE vitex_test_lat_nanos_p90 gauge\n"
      "vitex_test_lat_nanos_p90 1000\n"
      "# TYPE vitex_test_lat_nanos_p99 gauge\n"
      "vitex_test_lat_nanos_p99 1000\n"
      "# TYPE vitex_test_lat_nanos_max gauge\n"
      "vitex_test_lat_nanos_max 1000\n";
  EXPECT_EQ(registry.RenderText(), kGolden);
}

TEST(ObsStatszTest, SameNameHistogramInstancesMergeAtRender) {
  // The per-shard pattern: every writer registers a private instance under
  // one name; the exposition shows their union as a single series.
  obs::Registry registry;
  obs::Histogram* shard0 = registry.AddHistogram("vitex_merge_nanos", "m");
  obs::Histogram* shard1 = registry.AddHistogram("vitex_merge_nanos", "m");
  shard0->Record(1);
  shard0->Record(1);
  shard1->Record(1000);
  std::string text = registry.RenderText();
  EXPECT_NE(text.find("vitex_merge_nanos_count 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("vitex_merge_nanos_sum 1002\n"), std::string::npos);
  EXPECT_NE(text.find("vitex_merge_nanos_max 1000\n"), std::string::npos);
  // One TYPE header, not one per instance.
  size_t first = text.find("# TYPE vitex_merge_nanos histogram");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE vitex_merge_nanos histogram", first + 1),
            std::string::npos);
}

TEST(ObsStatszTest, LabelValuesAreEscaped) {
  obs::PrometheusWriter w;
  w.WriteGauge("vitex_esc", "", {{"q", "a\"b\\c\nd"}}, 1);
  EXPECT_EQ(w.text(),
            "# TYPE vitex_esc gauge\n"
            "vitex_esc{q=\"a\\\"b\\\\c\\nd\"} 1\n");
}

std::string FeedDoc(int items) {
  std::string doc = "<feed>";
  for (int i = 0; i < items; ++i) {
    doc += "<item" + std::to_string(i % 8) + "><val>v" + std::to_string(i) +
           "</val></item" + std::to_string(i % 8) + ">";
  }
  doc += "</feed>";
  return doc;
}

// Live acceptance: a traced service's /statsz payload carries the
// pipeline counters, queue watermark gauges, and every per-stage latency
// histogram with its quantile summary lines.
TEST(ObsStatszTest, ServiceStatszCoversCountersQueuesAndStages) {
  ServiceOptions options;
  options.shard_count = 2;
  options.stream_count = 2;
  options.queue_capacity = 4;
  Service service(options);
  std::vector<Subscription> subs;
  for (int i = 0; i < 8; ++i) {
    auto sub = service.Subscribe("//item" + std::to_string(i) + "/val/text()");
    ASSERT_TRUE(sub.ok());
    subs.push_back(std::move(sub).value());
  }
  for (int d = 0; d < 24; ++d) {
    ASSERT_TRUE(service.Publish(FeedDoc(32)).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  std::string text = service.StatszText();

  for (const char* needle : {
           "vitex_documents_published_total 24\n",
           "vitex_documents_processed_total 24\n",
           "vitex_active_subscriptions 8\n",
           "vitex_stream_queue_high_watermark{stream=\"0\"} ",
           "vitex_stream_publish_blocked_nanos_total{stream=\"1\"} ",
           "vitex_shard_inbox_high_watermark{shard=\"1\"} ",
           "vitex_shard_fanout_blocked_nanos_total{shard=\"0\"} ",
           "vitex_shard_dispatch_start_visits_total{shard=\"0\"} ",
           "vitex_shard_dispatch_machines{shard=\"1\"} ",
           "# TYPE vitex_stage_ingest_wait_nanos histogram",
           "# TYPE vitex_stage_parse_nanos histogram",
           "# TYPE vitex_stage_shard_queue_wait_nanos histogram",
           "# TYPE vitex_stage_match_nanos histogram",
           "# TYPE vitex_stage_e2e_nanos histogram",
           "vitex_stage_e2e_nanos_p50 ",
           "vitex_stage_e2e_nanos_p90 ",
           "vitex_stage_e2e_nanos_p99 ",
           "vitex_stage_match_nanos_max ",
       }) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing: " << needle << "\n"
        << text;
  }
  // Every shard replayed every document, so each stage histogram saw all
  // of them: 24 parses, 48 shard passes, 24 end-to-end samples.
  EXPECT_NE(text.find("vitex_stage_parse_nanos_count 24\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("vitex_stage_match_nanos_count 48\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("vitex_stage_e2e_nanos_count 24\n"), std::string::npos)
      << text;
}

TEST(ObsStatszTest, TracingOffDropsStageSeriesButKeepsCounters) {
  ServiceOptions options;
  options.shard_count = 1;
  options.enable_tracing = false;
  Service service(options);
  auto sub = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(service.Publish(FeedDoc(8)).ok());
  ASSERT_TRUE(service.Flush().ok());
  std::string text = service.StatszText();
  EXPECT_EQ(text.find("vitex_stage_"), std::string::npos) << text;
  EXPECT_NE(text.find("vitex_documents_published_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("vitex_shard_inbox_high_watermark{shard=\"0\"} "),
            std::string::npos);
}

// Satellite: rates are floored to 0 until the service has real uptime —
// never a division by near-zero. (Either the floor held the rate at 0, or
// enough wall time passed that the rate is finite and sane.)
TEST(ObsStatszTest, RatesRespectMinimumUptimeFloor) {
  ServiceOptions options;
  options.shard_count = 1;
  Service service(options);
  ASSERT_TRUE(service.Publish("<a><b>x</b></a>").ok());
  ASSERT_TRUE(service.Flush().ok());
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.documents_processed, 1u);
  if (stats.uptime_seconds < Service::kMinRateUptimeSeconds) {
    EXPECT_EQ(stats.docs_per_sec, 0.0);
    EXPECT_EQ(stats.events_per_sec, 0.0);
  } else {
    EXPECT_LE(stats.docs_per_sec,
              1.0 / Service::kMinRateUptimeSeconds);
  }
}

// events_per_sec counts each parsed event once: with 2 shards every event
// is replayed twice, and a rate built on replays would read 2x here.
TEST(ObsStatszTest, EventRateCountsParsedEventsNotReplays) {
  ServiceOptions options;
  options.shard_count = 2;
  Service service(options);
  auto sub = service.Subscribe("//item0/val/text()");
  ASSERT_TRUE(sub.ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(service.Publish(FeedDoc(8)).ok());
  ASSERT_TRUE(service.Flush().ok());
  std::this_thread::sleep_for(std::chrono::duration<double>(
      1.5 * Service::kMinRateUptimeSeconds));
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.documents_processed, 4u);
  ASSERT_EQ(stats.events_replayed, 2 * stats.events_parsed);
  ASSERT_GT(stats.docs_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(stats.events_per_sec / stats.docs_per_sec,
                   static_cast<double>(stats.events_parsed) /
                       static_cast<double>(stats.documents_processed));
}

}  // namespace
}  // namespace vitex
