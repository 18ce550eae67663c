// Copyright 2026 The TSP Authors.

#include "obs/trace_layout.h"

#include <bit>
#include <cstring>
#include <string>

namespace tsp {
namespace obs {

const char* EventCodeName(EventCode code) {
  switch (code) {
    case EventCode::kNone:
      return "none";
    case EventCode::kOcsBegin:
      return "ocs_begin";
    case EventCode::kSeqBlockLease:
      return "seq_block_lease";
    case EventCode::kSeqResync:
      return "seq_resync";
    case EventCode::kLogBatchPublish:
      return "log_batch_publish";
    case EventCode::kMagazineRefill:
      return "magazine_refill";
    case EventCode::kMagazineDrain:
      return "magazine_drain";
    case EventCode::kSessionOpen:
      return "session_open";
  }
  return "unknown";
}

std::uint64_t TraceArea::Format(void* base, std::size_t size,
                                std::uint32_t max_threads) {
  const std::uint64_t rings_offset =
      (sizeof(TraceAreaHeader) + kCacheLineSize - 1) / kCacheLineSize *
      kCacheLineSize;
  const std::uint64_t events_offset =
      rings_offset + static_cast<std::uint64_t>(max_threads) *
                         sizeof(TraceRingHeader);
  if (events_offset + sizeof(TraceEvent) * max_threads > size) return 0;
  const std::uint64_t events_per_thread = std::bit_floor(
      (size - events_offset) / (sizeof(TraceEvent) * max_threads));

  std::memset(base, 0, events_offset);
  auto* header = static_cast<TraceAreaHeader*>(base);
  header->version = kTraceVersion;
  header->max_threads = max_threads;
  header->events_per_thread = events_per_thread;
  header->rings_offset = rings_offset;
  header->events_offset = events_offset;
  TraceArea area(base, size);
  for (std::uint32_t i = 0; i < max_threads; ++i) {
    area.ring(i)->ring_id = i;
  }
  // Magic last: a crash mid-format leaves the area invalid, not torn.
  header->magic = kTraceMagic;
  return events_per_thread;
}

Status TraceArea::Check(const void* base, std::size_t size) {
  const auto* header = static_cast<const TraceAreaHeader*>(base);
  if (base == nullptr || size < sizeof(TraceAreaHeader) ||
      header->magic != kTraceMagic) {
    return Status::NotFound("no flight-recorder area");
  }
  if (header->version != kTraceVersion) {
    return Status::Corruption(
        "flight-recorder area has format version " +
        std::to_string(header->version) + ", but this build reads only "
        "version " + std::to_string(kTraceVersion) +
        "; use the build that wrote it");
  }
  // Overflow-safe: every product is bounded by `size` before it is
  // formed.
  const std::uint64_t threads = header->max_threads;
  const bool fits =
      threads > 0 && header->events_per_thread > 0 &&
      header->rings_offset >= sizeof(TraceAreaHeader) &&
      header->rings_offset <= size &&
      threads <= (size - header->rings_offset) / sizeof(TraceRingHeader) &&
      header->events_offset >=
          header->rings_offset + threads * sizeof(TraceRingHeader) &&
      header->events_offset <= size &&
      header->events_per_thread <=
          (size - header->events_offset) / sizeof(TraceEvent) / threads;
  if (!fits || !std::has_single_bit(header->events_per_thread)) {
    return Status::Corruption(
        "flight-recorder area header is torn: its geometry (" +
        std::to_string(threads) + " rings of " +
        std::to_string(header->events_per_thread) +
        " events) exceeds the area, is empty, or has a ring capacity "
        "that is not a power of two");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace tsp
