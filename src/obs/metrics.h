// Copyright 2026 The TSP Authors.
// Unified metrics registry: named counters, gauges and power-of-two-bucket
// histograms with one registration point and one JSON snapshot call,
// replacing the per-subsystem hand-rolled stats plumbing.
//
// Two ways to feed the registry:
//  - Owned metrics: TSP_COUNTER_INC("recovery.heaps") etc. resolve the
//    name once (function-local static) and then are a single relaxed
//    fetch_add. Use for cold or warm paths.
//  - Pull sources: subsystems that already keep per-thread/per-instance
//    stats off shared cache lines (AtlasRuntimeStats, allocator stats)
//    register a callback that folds them in at snapshot time, so the hot
//    path stays contention-free.
//
// Building with -DTSP_OBS=OFF compiles the macros to no-ops; the registry
// itself stays linkable so tools degrade to empty snapshots.

#ifndef TSP_OBS_METRICS_H_
#define TSP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tsp {
namespace obs {

class TraceWriter;

class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Power-of-two-bucket histogram: a value lands in bucket `bit_width(v)`,
/// i.e. bucket b counts values in [2^(b-1), 2^b) and bucket 0 counts
/// exact zeros. 65 buckets cover the full uint64 range.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void Observe(std::uint64_t v) {
    int bucket = 0;
    if (v != 0) bucket = 64 - __builtin_clzll(v);  // == bit_width(v)
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of the registry, merged across owned metrics and all
/// registered sources (same-named counters/gauges sum).
struct MetricsSnapshot {
  struct HistogramData {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  /// 0 / empty-data when the name is absent.
  std::uint64_t counter(const std::string& name) const;

  std::string ToJson() const;
};

/// Builder handed to pull sources at snapshot time.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(MetricsSnapshot* snapshot) : snapshot_(snapshot) {}
  void AddCounter(const std::string& name, std::uint64_t v) {
    snapshot_->counters[name] += v;
  }
  void AddGauge(const std::string& name, std::int64_t v) {
    snapshot_->gauges[name] += v;
  }

 private:
  MetricsSnapshot* snapshot_;
};

class MetricsRegistry {
 public:
  using Source = std::function<void(SnapshotBuilder*)>;

  /// Name lookups create on first use and return a stable reference.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Registers a pull source; returns an id for UnregisterSource. Sources
  /// must tolerate being called from any thread holding no subsystem locks.
  std::uint64_t RegisterSource(Source source);
  void UnregisterSource(std::uint64_t id);

  MetricsSnapshot Snapshot() const;

  /// Zeroes all owned metrics (sources are untouched — their owners reset
  /// their own state). Used by benches for A/B runs.
  void ResetOwned();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::uint64_t next_source_id_ = 1;
  std::vector<std::pair<std::uint64_t, Source>> sources_;
};

/// The process-wide registry every subsystem and tool uses.
MetricsRegistry& DefaultRegistry();

}  // namespace obs
}  // namespace tsp

#ifndef TSP_OBS_DISABLED

/// Statement macros against the default registry. The name is resolved to
/// a metric object once per call site (function-local static reference).
#define TSP_COUNTER_ADD(name, n)                                    \
  do {                                                              \
    static ::tsp::obs::Counter& _tsp_counter =                      \
        ::tsp::obs::DefaultRegistry().GetCounter(name);             \
    _tsp_counter.Add(n);                                            \
  } while (false)
#define TSP_COUNTER_INC(name) TSP_COUNTER_ADD(name, 1)
#define TSP_GAUGE_SET(name, v)                                      \
  do {                                                              \
    static ::tsp::obs::Gauge& _tsp_gauge =                          \
        ::tsp::obs::DefaultRegistry().GetGauge(name);               \
    _tsp_gauge.Set(v);                                              \
  } while (false)
#define TSP_HISTOGRAM_OBSERVE(name, v)                              \
  do {                                                              \
    static ::tsp::obs::Histogram& _tsp_histogram =                  \
        ::tsp::obs::DefaultRegistry().GetHistogram(name);           \
    _tsp_histogram.Observe(v);                                      \
  } while (false)

/// Emits a trace event iff `writer_ptr` (an obs::TraceWriter*) is non-null.
/// Call sites must see the full TraceWriter definition (obs/recorder.h).
#define TSP_TRACE_EVENT(writer_ptr, ...)                            \
  do {                                                              \
    ::tsp::obs::TraceWriter* _tsp_writer = (writer_ptr);            \
    if (_tsp_writer != nullptr) _tsp_writer->Emit(__VA_ARGS__);     \
  } while (false)
/// Moves the ring's commit watermark (TraceWriter::Commit) iff
/// `writer_ptr` is non-null.
#define TSP_TRACE_COMMIT(writer_ptr, packed_ocs)                    \
  do {                                                              \
    ::tsp::obs::TraceWriter* _tsp_writer = (writer_ptr);            \
    if (_tsp_writer != nullptr) _tsp_writer->Commit(packed_ocs);    \
  } while (false)

#else  // TSP_OBS_DISABLED

#define TSP_COUNTER_ADD(name, n) \
  do {                           \
  } while (false)
#define TSP_COUNTER_INC(name) \
  do {                        \
  } while (false)
#define TSP_GAUGE_SET(name, v) \
  do {                         \
  } while (false)
#define TSP_HISTOGRAM_OBSERVE(name, v) \
  do {                                 \
  } while (false)
#define TSP_TRACE_EVENT(writer_ptr, ...) \
  do {                                   \
  } while (false)
#define TSP_TRACE_COMMIT(writer_ptr, packed_ocs) \
  do {                                           \
  } while (false)

#endif  // TSP_OBS_DISABLED

#endif  // TSP_OBS_METRICS_H_
