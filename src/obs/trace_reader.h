// Copyright 2026 The TSP Authors.
// Read side of the persistent flight recorder: decodes the per-thread
// rings of a (typically crashed) heap's trace area and merges them into a
// stamp-ordered stream. Works on read-only mappings; trusts only events
// below each ring's published tail, exactly like Atlas recovery trusts
// only log entries below the log tail.

#ifndef TSP_OBS_TRACE_READER_H_
#define TSP_OBS_TRACE_READER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace_layout.h"

namespace tsp {
namespace obs {

/// An OCS that was begun but never committed in a ring's surviving window —
/// post-crash, the interrupted OCS recovery must roll back. The ring's
/// last kOcsBegin is open unless the ring's commit watermark names it.
struct OpenOcsSpan {
  std::uint32_t ring_id;
  std::uint64_t packed_ocs;  // atlas::PackThreadOcs value from the event
  std::uint64_t begin_stamp;
  std::uint32_t lock_id;
};

class TraceReader {
 public:
  /// Attaches to the trace reservation at the tail of `runtime_area`.
  /// valid() is false when the area holds no readable recorder: status()
  /// is kNotFound for none at all (tiny runtime area, or recorder
  /// compiled/switched off when it ran), or TraceArea::Check's reason
  /// for an area of another version or a torn geometry.
  TraceReader(const void* runtime_area, std::size_t runtime_area_size);

  bool valid() const { return status_.ok(); }
  const Status& status() const { return status_; }
  const TraceArea& area() const { return area_; }

  /// All surviving events of one ring, oldest first. Empty for unused or
  /// invalid rings.
  std::vector<TraceEvent> RingEvents(std::uint32_t ring_index) const;

  /// All surviving events of all rings merged by stamp (stable for equal
  /// stamps, by ring index).
  std::vector<TraceEvent> MergedEvents() const;

  /// Per ring, the last OCS begin when the ring's commit watermark does
  /// not name its OCS.
  std::vector<OpenOcsSpan> OpenOcsSpans() const;

  /// Sum of published tails across rings.
  std::uint64_t EventsRecorded() const;

 private:
  TraceArea area_;
  Status status_;
};

}  // namespace obs
}  // namespace tsp

#endif  // TSP_OBS_TRACE_READER_H_
