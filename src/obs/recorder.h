// Copyright 2026 The TSP Authors.
// Writer side of the persistent flight recorder (DESIGN.md §9).
//
// A Recorder attaches to the trace reservation at the tail of a heap's
// runtime area and hands out one wait-free TraceWriter per thread. Emitting
// an event is a handful of plain stores plus one release-store of the ring
// tail — no CAS, no flush, no syscall — and an OCS commit is one store of
// the ring's commit watermark, so it is cheap enough to leave on in the
// Atlas OCS hot path (E13, bench_table1 --trace off,on: ≤5%).
//
// Compile-time kill switch: building with -DTSP_OBS=OFF defines
// TSP_OBS_DISABLED and Attach() collapses to returning no recorder, so
// every TSP_TRACE_EVENT site dissolves into a null-check against a
// pointer that is provably null. Runtime switch: TSP_TRACE=0 (or
// SetTraceEnabled(false)) makes Attach() return no recorder as well.

#ifndef TSP_OBS_RECORDER_H_
#define TSP_OBS_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "obs/trace_layout.h"

namespace tsp {
namespace obs {

/// Process-wide runtime toggle, initialized from TSP_TRACE (unset or any
/// value other than "0" means enabled). Consulted at Attach() time only:
/// flipping it does not affect recorders that are already attached.
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// Per-thread handle writing into one ring. Obtained from
/// Recorder::writer(); valid until the recorder is destroyed or the thread
/// releases its slot.
class TraceWriter {
 public:
  /// A real TraceStamp() read every this-many events; see Emit().
  static constexpr std::uint32_t kStampRefreshInterval = 16;

  /// `mask` is the ring capacity minus one (TraceArea::event_mask).
  TraceWriter(TraceRingHeader* slot, TraceEvent* ring, std::uint64_t mask)
      : slot_(slot),
        ring_(ring),
        mask_(mask),
        tail_(slot->tail.load(std::memory_order_relaxed)),
        head_(slot->head.load(std::memory_order_relaxed)) {}

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Records one event. Wait-free: overwrites the oldest event when the
  /// ring is full (flight-recorder semantics).
  ///
  /// Stamps are amortized: one real TraceStamp() read per
  /// kStampRefreshInterval events, +1 interpolation in between (strictly
  /// increasing within the ring either way). A TSC read costs more than
  /// the rest of Emit combined — over 15 ns on virtualized hosts — and
  /// cross-ring merge only needs OCS-span granularity; the interpolated
  /// stamps lag true time by at most the age of the last refresh, i.e.
  /// by the duration of ≤16 events on an active thread. (A thread that
  /// idles long between events can surface up to one refresh window of
  /// events stamped near its last sync — a bounded display artifact in
  /// the merged stream, never an ordering error within a ring.)
  TSP_ALWAYS_INLINE void Emit(EventCode code, std::uint64_t arg0 = 0,
                              std::uint64_t arg1 = 0, std::uint32_t aux = 0) {
    const std::uint64_t pos = tail_;
    if (TSP_PREDICT_FALSE(pos - head_ > mask_)) {
      head_ = pos - mask_;
      slot_->head.store(head_, std::memory_order_relaxed);
    }
    std::uint64_t stamp = last_stamp_ + 1;
    if (TSP_PREDICT_FALSE(--stamp_credit_ == 0)) {
      stamp_credit_ = kStampRefreshInterval;
      const std::uint64_t fresh = TraceStamp();
      if (fresh > stamp) stamp = fresh;
    }
    last_stamp_ = stamp;
    TraceEvent* e = &ring_[pos & mask_];
    e->stamp = stamp;
    e->arg0 = arg0;
    e->arg1 = arg1;
    e->code = static_cast<std::uint16_t>(code);
    e->thread_id = static_cast<std::uint16_t>(slot_->ring_id);
    e->aux = aux;
    // Publish: a post-crash reader trusts only events below the tail, so
    // the entry bytes must be globally visible before the tail covers them
    // (same protocol as the Atlas undo log).
    tail_ = pos + 1;
    slot_->tail.store(tail_, std::memory_order_release);
  }

  /// Records the commit of OCS `packed_ocs` (atlas::PackThreadOcs): one
  /// store of the ring's commit watermark, which closes the span that
  /// OCS's kOcsBegin opened. A post-crash reader sees the span open
  /// exactly when the kill landed before this store.
  TSP_ALWAYS_INLINE void Commit(std::uint64_t packed_ocs) {
    slot_->commit_watermark.store(packed_ocs, std::memory_order_release);
  }

  std::uint32_t ring_id() const { return slot_->ring_id; }

 private:
  TraceRingHeader* slot_;
  TraceEvent* ring_;
  std::uint64_t mask_;
  std::uint64_t tail_;  // cached; slot_->tail is the published copy
  std::uint64_t head_;
  std::uint64_t last_stamp_ = 0;
  std::uint32_t stamp_credit_ = 1;  // first emit reads a real stamp
};

/// One recorder per writable heap. Created by PersistentHeap when the
/// runtime area has a trace reservation; null when tracing is disabled
/// (compile- or run-time), the area is too small, or the mapping is
/// read-only.
class Recorder {
 public:
  struct AttachOptions {
    std::uint64_t generation = 0;
    /// When false (heap needs recovery, or a multi-process attach) an
    /// area that fails TraceArea::Check is never formatted: one without
    /// the trace magic runs untraced, one of another version or with a
    /// torn geometry is refused, so attach never destroys evidence.
    bool allow_format = true;
    /// Multi-process attach (MappedRegion::Attach): ring claims found in
    /// the area belong to *live peer processes*, not to a finished
    /// session, so Attach must not clear them. Instead writer() checks
    /// the claimant identity stamped in each TraceRingHeader and
    /// harvests only rings whose owner process is dead.
    bool shared = false;
  };

  /// Attaches to (formatting if invalid and allowed) the trace reservation
  /// at the tail of `runtime_area`. Returns a null recorder when it
  /// cannot or should not run: tracing off, no reservation, or an area
  /// without the trace magic that may not be formatted; callers treat a
  /// null recorder as "tracing off" throughout. Returns TraceArea::Check's
  /// kCorruption when formatting is not allowed and the area has another
  /// version or a torn geometry.
  static StatusOr<std::unique_ptr<Recorder>> Attach(
      void* runtime_area, std::size_t runtime_area_size,
      const AttachOptions& options);

  ~Recorder();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// The calling thread's writer, claiming a ring slot on first use.
  /// Returns nullptr when every slot is taken. Claiming a slot resets that
  /// ring: slots are only handed to live threads, so a ring holding a dead
  /// session's evidence is recycled no earlier than the first new claim.
  TraceWriter* writer();

  /// Releases the calling thread's slot (ring data is preserved for
  /// readers; only the claim is dropped). Called on thread unregister.
  void ReleaseCurrentThread();

  /// Total events published across all rings (monotonic tails), used by
  /// bench_table1 to prove the recorder actually ran.
  std::uint64_t EventsRecorded() const;

  const TraceArea& area() const { return area_; }

 private:
  Recorder(TraceArea area, std::uint64_t generation, bool shared);

  TraceArea area_;
  std::uint64_t generation_;
  std::uint64_t instance_id_;
  /// Multi-process attach: claims belong to peers; harvest dead owners
  /// instead of assuming every claim is ours to clear.
  bool shared_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<TraceWriter>> writers_;
};

}  // namespace obs
}  // namespace tsp

#endif  // TSP_OBS_RECORDER_H_
