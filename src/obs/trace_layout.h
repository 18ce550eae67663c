// Copyright 2026 The TSP Authors.
// On-media layout of the persistent flight recorder (DESIGN.md §9).
//
// The recorder is a set of per-thread binary event rings carved out of the
// tail of a region's runtime area. Like the Atlas undo log it relies on
// nothing but MAP_SHARED plain stores for crash survival: under the
// process-crash failure model every store issued before the SIGKILL is
// visible to the next process that maps the file, so events need no flush,
// no fence beyond the release-store publication of the ring tail, and no
// write-window blessing (TSPSan protects only the arena, not the runtime
// area). After a crash the rings are decoded read-only and merged by stamp.

#ifndef TSP_OBS_TRACE_LAYOUT_H_
#define TSP_OBS_TRACE_LAYOUT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ctime>

#include "common/macros.h"
#include "common/status.h"

namespace tsp {
namespace obs {

/// Event codes recorded by the instrumented layers. Codes are part of the
/// on-media format: append new codes, never renumber existing ones. An
/// OCS commit is not an event: it moves the ring's commit watermark
/// (TraceRingHeader::commit_watermark). Code 2, the commit event of
/// format version 1, stays unused.
enum class EventCode : std::uint16_t {
  kNone = 0,
  // Atlas (src/atlas/runtime.cc).
  kOcsBegin = 1,        // arg0 = packed (thread,ocs) id, aux = lock id
  kSeqBlockLease = 3,   // arg0 = first leased stamp, arg1 = block size
  kSeqResync = 4,       // arg0 = observed frontier, arg1 = previous frontier
  kLogBatchPublish = 5, // arg0 = packed (thread,ocs) id, arg1 = entry count
  // Allocator (src/pheap/allocator.cc).
  kMagazineRefill = 16, // arg0 = size class, arg1 = blocks obtained
  kMagazineDrain = 17,  // arg0 = size class, arg1 = blocks returned
  // Harness / session markers.
  kSessionOpen = 32,    // arg0 = generation
};

const char* EventCodeName(EventCode code);

/// One recorded event. 32 bytes, written with plain stores and published by
/// a release-store of the owning ring's tail; a reader that trusts only
/// events below the tail never observes a torn record.
struct TraceEvent {
  std::uint64_t stamp;      // amortized TraceStamp() (see TraceWriter::Emit)
  std::uint64_t arg0;
  std::uint64_t arg1;
  std::uint16_t code;       // EventCode
  std::uint16_t thread_id;  // ring slot that recorded the event
  std::uint32_t aux;
};
static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay 32 bytes");

/// Ring claim states (the `in_use` word). kRingHarvesting marks a claim
/// mid-steal from a dead process under multi-process attach; it follows
/// the same three-state protocol as the Atlas thread slots (DESIGN.md
/// §12) so exactly one survivor recycles a corpse's ring.
inline constexpr std::uint32_t kRingFree = 0;
inline constexpr std::uint32_t kRingClaimed = 1;
inline constexpr std::uint32_t kRingHarvesting = 2;

/// Per-ring control block, one cache line. `head`/`tail` are monotonic
/// event indices (position in the ring is index & (capacity - 1), the
/// capacity being a power of two); the writer advances `head` when it
/// overwrites the oldest event, flight-recorder style, so `tail - head`
/// is the number of decodable events.
///
/// `owner_pid`/`owner_birth` stamp the claimant's process identity
/// (common/process_id.h) so that under multi-process attach a survivor
/// can tell a live peer's ring from a corpse's. Stamp order is birth
/// then pid (release); clears go pid first — pid == 0 under a claim
/// always means "mid-stamp, assume alive". Zeros also cover rings
/// claimed by sessions predating the fields (conservatively alive;
/// exclusive reopen clears every claim anyway).
struct alignas(kCacheLineSize) TraceRingHeader {
  std::atomic<std::uint32_t> in_use;    // kRingFree/kRingClaimed/kRingHarvesting
  std::uint32_t ring_id;
  std::atomic<std::uint64_t> head;      // oldest surviving event index
  std::atomic<std::uint64_t> tail;      // next event index (publication point)
  std::uint64_t generation;             // session generation at claim time
  std::atomic<std::uint32_t> owner_pid; // claimant process (0 = unstamped)
  std::uint32_t reserved32;
  std::uint64_t owner_birth;            // claimant birth epoch (0 = unknown)
  /// Packed (thread, ocs) id of the last OCS whose commit this ring's
  /// writer recorded (0 = none yet). An OCS's kOcsBegin with no later
  /// begin is an open span unless the watermark names it.
  std::atomic<std::uint64_t> commit_watermark;
};
static_assert(sizeof(TraceRingHeader) == kCacheLineSize,
              "TraceRingHeader must stay one cache line");

/// Header at the start of the trace area. Self-describing so readers (and
/// later sessions) decode files formatted with different geometry.
struct TraceAreaHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t max_threads;
  std::uint64_t events_per_thread;  // a power of two
  std::uint64_t rings_offset;    // from trace-area base, to TraceRingHeader[]
  std::uint64_t events_offset;   // from trace-area base, to TraceEvent[]
};

inline constexpr std::uint64_t kTraceMagic = 0x5453505452414345ull;  // "TSPTRACE"
/// The only trace format this build reads. Version 2: power-of-two
/// rings, and the commit watermark in place of a commit event.
inline constexpr std::uint32_t kTraceVersion = 2;
inline constexpr std::uint32_t kDefaultMaxTraceThreads = 64;

/// Bytes reserved for the recorder at the tail of a runtime area of
/// `runtime_area_size` bytes. Zero (recorder disabled) for small runtime
/// areas so existing tests with tiny areas keep their Atlas log capacity;
/// otherwise 1/8th of the area clamped to [512 KiB, 2 MiB].
constexpr std::size_t TraceReservationBytes(std::size_t runtime_area_size) {
  constexpr std::size_t kMinRuntimeArea = std::size_t{4} << 20;
  constexpr std::size_t kMinReservation = std::size_t{512} << 10;
  constexpr std::size_t kMaxReservation = std::size_t{2} << 20;
  if (runtime_area_size < kMinRuntimeArea) return 0;
  const std::size_t eighth = runtime_area_size / 8;
  if (eighth < kMinReservation) return kMinReservation;
  if (eighth > kMaxReservation) return kMaxReservation;
  return eighth;
}

/// View over a formatted trace area. Mirrors atlas::AtlasArea: Format()
/// lays the area out, Check() checks a (possibly foreign-geometry)
/// header against the mapped size, accessors navigate via the
/// self-described offsets.
class TraceArea {
 public:
  TraceArea() = default;
  TraceArea(void* base, std::size_t size)
      : base_(static_cast<std::uint8_t*>(base)), size_(size) {}

  /// Formats the area for `max_threads` rings, each of the largest
  /// power-of-two capacity that fits. Returns events-per-thread (0 if
  /// the area is too small for even one event per ring).
  static std::uint64_t Format(void* base, std::size_t size,
                              std::uint32_t max_threads);

  /// Why `size` bytes at `base` do not hold a readable trace area:
  /// kNotFound when they carry no trace magic (never formatted, or a
  /// heap from before the reservation), kCorruption naming both
  /// versions for an area of another kTraceVersion, kCorruption for a
  /// torn geometry (tables past `size`, no rings, or a ring capacity
  /// that is not a power of two). OK for a readable area.
  static Status Check(const void* base, std::size_t size);

  TraceAreaHeader* header() { return reinterpret_cast<TraceAreaHeader*>(base_); }
  const TraceAreaHeader* header() const {
    return reinterpret_cast<const TraceAreaHeader*>(base_);
  }

  TraceRingHeader* ring(std::uint32_t i) {
    return reinterpret_cast<TraceRingHeader*>(base_ + header()->rings_offset) +
           i;
  }
  const TraceRingHeader* ring(std::uint32_t i) const {
    return reinterpret_cast<const TraceRingHeader*>(base_ +
                                                    header()->rings_offset) +
           i;
  }

  /// Ring capacity minus one: event index `i` of a ring lives at
  /// events(ring)[i & event_mask()], for the writer and every reader.
  std::uint64_t event_mask() const { return header()->events_per_thread - 1; }

  TraceEvent* events(std::uint32_t ring_index) {
    return reinterpret_cast<TraceEvent*>(base_ + header()->events_offset) +
           static_cast<std::uint64_t>(ring_index) *
               header()->events_per_thread;
  }
  const TraceEvent* events(std::uint32_t ring_index) const {
    return reinterpret_cast<const TraceEvent*>(base_ +
                                               header()->events_offset) +
           static_cast<std::uint64_t>(ring_index) *
               header()->events_per_thread;
  }

  void* base() { return base_; }
  const void* base() const { return base_; }
  std::size_t size() const { return size_; }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Monotonic-enough per-emit timestamp used to merge rings post-crash.
/// TSC on x86-64 (~7ns, and modern invariant TSCs are synchronized across
/// cores at the granularity we need for ordering OCS spans); steady-clock
/// nanoseconds elsewhere.
TSP_ALWAYS_INLINE std::uint64_t TraceStamp() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#else
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}

}  // namespace obs
}  // namespace tsp

#endif  // TSP_OBS_TRACE_LAYOUT_H_
