// Copyright 2026 The TSP Authors.

#include "obs/trace_reader.h"

#include <algorithm>

namespace tsp {
namespace obs {

TraceReader::TraceReader(const void* runtime_area,
                         std::size_t runtime_area_size)
    : status_(Status::NotFound("no flight-recorder reservation")) {
  const std::size_t reservation = TraceReservationBytes(runtime_area_size);
  if (runtime_area == nullptr || reservation == 0) return;
  const void* base = static_cast<const std::uint8_t*>(runtime_area) +
                     runtime_area_size - reservation;
  status_ = TraceArea::Check(base, reservation);
  if (status_.ok()) area_ = TraceArea(const_cast<void*>(base), reservation);
}

std::vector<TraceEvent> TraceReader::RingEvents(
    std::uint32_t ring_index) const {
  std::vector<TraceEvent> out;
  if (!valid() || ring_index >= area_.header()->max_threads) return out;
  const TraceRingHeader* slot = area_.ring(ring_index);
  const std::uint64_t mask = area_.event_mask();
  const std::uint64_t tail = slot->tail.load(std::memory_order_acquire);
  std::uint64_t head = slot->head.load(std::memory_order_relaxed);
  // Defensive clamps: trust nothing a crashed writer may have left behind
  // beyond the publication protocol.
  if (tail < head) return out;
  if (tail - head > mask + 1) head = tail - (mask + 1);
  const TraceEvent* ring = area_.events(ring_index);
  out.reserve(tail - head);
  for (std::uint64_t pos = head; pos < tail; ++pos) {
    out.push_back(ring[pos & mask]);
  }
  return out;
}

std::vector<TraceEvent> TraceReader::MergedEvents() const {
  std::vector<TraceEvent> merged;
  if (!valid()) return merged;
  for (std::uint32_t i = 0; i < area_.header()->max_threads; ++i) {
    std::vector<TraceEvent> ring = RingEvents(i);
    merged.insert(merged.end(), ring.begin(), ring.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.stamp < b.stamp;
                   });
  return merged;
}

std::vector<OpenOcsSpan> TraceReader::OpenOcsSpans() const {
  std::vector<OpenOcsSpan> spans;
  if (!valid()) return spans;
  for (std::uint32_t i = 0; i < area_.header()->max_threads; ++i) {
    const std::vector<TraceEvent> events = RingEvents(i);
    const auto last_begin = std::find_if(
        events.rbegin(), events.rend(), [](const TraceEvent& e) {
          return static_cast<EventCode>(e.code) == EventCode::kOcsBegin;
        });
    if (last_begin == events.rend()) continue;
    // One writer per ring commits its OCSes in order, so the watermark
    // names the last begun OCS exactly when that OCS committed.
    if (area_.ring(i)->commit_watermark.load(std::memory_order_acquire) ==
        last_begin->arg0) {
      continue;
    }
    spans.push_back(OpenOcsSpan{i, last_begin->arg0, last_begin->stamp,
                                last_begin->aux});
  }
  return spans;
}

std::uint64_t TraceReader::EventsRecorded() const {
  if (!valid()) return 0;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < area_.header()->max_threads; ++i) {
    total += area_.ring(i)->tail.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace obs
}  // namespace tsp
