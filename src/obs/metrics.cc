// Copyright 2026 The TSP Authors.

#include "obs/metrics.h"

#include <sstream>

#include "common/findings.h"

namespace tsp {
namespace obs {

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out << ",";
    first = false;
    out << "\"" << report::JsonEscape(name) << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out << ",";
    first = false;
    out << "\"" << report::JsonEscape(name) << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out << ",";
    first = false;
    out << "\"" << report::JsonEscape(name) << "\":{\"count\":" << h.count
        << ",\"sum\":" << h.sum << ",\"buckets\":[";
    // Sparse emission: [bit, n] pairs; bucket `bit` holds values in
    // [2^(bit-1), 2^bit), bucket 0 holds exact zeros.
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      if (!first_bucket) out << ",";
      first_bucket = false;
      out << "[" << i << "," << h.buckets[i] << "]";
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::uint64_t MetricsRegistry::RegisterSource(Source source) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t id = next_source_id_++;
  sources_.emplace_back(id, std::move(source));
  return id;
}

void MetricsRegistry::UnregisterSource(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->first == id) {
      sources_.erase(it);
      return;
    }
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  SnapshotBuilder builder(&snapshot);
  std::vector<Source> sources;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, counter] : counters_) {
      snapshot.counters[name] += counter->value();
    }
    for (const auto& [name, gauge] : gauges_) {
      snapshot.gauges[name] += gauge->value();
    }
    for (const auto& [name, histogram] : histograms_) {
      auto& data = snapshot.histograms[name];
      data.count = histogram->count();
      data.sum = histogram->sum();
      for (int i = 0; i < Histogram::kBuckets; ++i) {
        data.buckets[i] = histogram->bucket(i);
      }
    }
    sources.reserve(sources_.size());
    for (const auto& [id, source] : sources_) sources.push_back(source);
  }
  // Sources run outside the registry lock: a source is free to call back
  // into GetCounter etc. without deadlocking.
  for (const Source& source : sources) source(&builder);
  return snapshot;
}

void MetricsRegistry::ResetOwned() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

MetricsRegistry& DefaultRegistry() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace tsp
