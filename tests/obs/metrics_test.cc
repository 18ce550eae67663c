// Unified metrics registry: owned counters/gauges/histograms, pull
// sources, snapshot merging, and the JSON export every tool and bench
// consumes.

#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace tsp::obs {
namespace {

TEST(MetricsTest, CounterAndGaugeRoundTrip) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test.counter");
  counter.Increment();
  counter.Add(41);
  EXPECT_EQ(counter.value(), 42u);
  // Lookups return the same object.
  EXPECT_EQ(&registry.GetCounter("test.counter"), &counter);

  Gauge& gauge = registry.GetGauge("test.gauge");
  gauge.Set(-7);
  gauge.Add(10);
  EXPECT_EQ(gauge.value(), 3);
}

TEST(MetricsTest, HistogramBucketsArePowerOfTwo) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test.hist");
  hist.Observe(0);     // bucket 0: exact zeros
  hist.Observe(1);     // bucket 1: [1, 2)
  hist.Observe(2);     // bucket 2: [2, 4)
  hist.Observe(3);     // bucket 2
  hist.Observe(1024);  // bucket 11: [1024, 2048)
  hist.Observe(~0ull); // bucket 64
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_EQ(hist.sum(), 0u + 1 + 2 + 3 + 1024 + ~0ull);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(2), 2u);
  EXPECT_EQ(hist.bucket(11), 1u);
  EXPECT_EQ(hist.bucket(64), 1u);
}

TEST(MetricsTest, SnapshotMergesSourcesWithOwnedMetrics) {
  MetricsRegistry registry;
  registry.GetCounter("shared.count").Add(5);
  // Two sources feeding the same name model two shard heaps: their
  // contributions (and the owned counter's) sum.
  const std::uint64_t a =
      registry.RegisterSource([](SnapshotBuilder* builder) {
        builder->AddCounter("shared.count", 10);
        builder->AddGauge("shard.gauge", 1);
      });
  const std::uint64_t b =
      registry.RegisterSource([](SnapshotBuilder* builder) {
        builder->AddCounter("shared.count", 100);
        builder->AddGauge("shard.gauge", 2);
      });
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("shared.count"), 115u);
  EXPECT_EQ(snapshot.gauges.at("shard.gauge"), 3);

  registry.UnregisterSource(a);
  registry.UnregisterSource(b);
  snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("shared.count"), 5u);
  EXPECT_EQ(snapshot.gauges.count("shard.gauge"), 0u);
}

// Sources run outside the registry lock, so a source may itself touch
// the registry (e.g. a subsystem whose stats getter logs a counter).
TEST(MetricsTest, SourcesMayReenterTheRegistry) {
  MetricsRegistry registry;
  const std::uint64_t id =
      registry.RegisterSource([&registry](SnapshotBuilder* builder) {
        registry.GetCounter("reentrant.count").Increment();
        builder->AddCounter("source.count", 1);
      });
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("source.count"), 1u);
  registry.UnregisterSource(id);
}

TEST(MetricsTest, ResetOwnedZeroesMetricsButKeepsSources) {
  MetricsRegistry registry;
  registry.GetCounter("owned.count").Add(9);
  registry.GetGauge("owned.gauge").Set(9);
  registry.GetHistogram("owned.hist").Observe(9);
  const std::uint64_t id =
      registry.RegisterSource([](SnapshotBuilder* builder) {
        builder->AddCounter("pulled.count", 2);
      });
  registry.ResetOwned();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counter("owned.count"), 0u);
  EXPECT_EQ(snapshot.gauges.at("owned.gauge"), 0);
  EXPECT_EQ(snapshot.histograms.at("owned.hist").count, 0u);
  EXPECT_EQ(snapshot.counter("pulled.count"), 2u);
  registry.UnregisterSource(id);
}

TEST(MetricsTest, ToJsonShape) {
  MetricsRegistry registry;
  registry.GetCounter("a.count").Add(3);
  registry.GetGauge("b.gauge").Set(-4);
  registry.GetHistogram("c.hist").Observe(5);  // bucket 3 = [4, 8)
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\":{\"a.count\":3}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"b.gauge\":-4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"c.hist\":{\"count\":1,\"sum\":5,\"buckets\":[[3,1]]}"),
            std::string::npos)
      << json;
}

TEST(MetricsTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter& counter = registry.GetCounter("mt.count");
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("mt.count").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace tsp::obs
