#include "atlas/log_layout.h"

#include <bit>
#include <cstring>
#include <string>

namespace tsp::atlas {
namespace {

constexpr std::size_t AlignUp(std::size_t value, std::size_t alignment) {
  return (value + alignment - 1) & ~(alignment - 1);
}

}  // namespace

std::uint64_t AtlasArea::Format(void* base, std::size_t size,
                                std::uint32_t max_threads) {
  const std::size_t header_bytes = sizeof(AtlasAreaHeader);
  const std::size_t slots_bytes = sizeof(ThreadLogHeader) * max_threads;

  // Carve the robust lock table right after the area header — unless
  // the area is too small, in which case robust locking stays off for
  // the heap (same degrade policy as the counter slots below).
  std::uint32_t robust_lock_count = kDefaultRobustLockCount;
  const std::size_t robust_locks_offset =
      AlignUp(header_bytes, alignof(RobustTableHeader));
  std::size_t robust_bytes =
      sizeof(RobustTableHeader) + sizeof(RobustLockWord) * robust_lock_count;
  if (robust_locks_offset + robust_bytes + slots_bytes +
          sizeof(LogEntry) * max_threads * kDefaultRobustLockCount >
      size) {
    robust_lock_count = 0;
    robust_bytes = 0;
  }

  // Round the slots offset up to the ThreadLogHeader alignment.
  const std::size_t slots_offset =
      AlignUp(robust_locks_offset + robust_bytes, alignof(ThreadLogHeader));

  // Carve the per-thread CounterSlot arrays between the ring headers and
  // the entry storage — unless doing so would starve the rings, in which
  // case the area formats without counter slots and the runtime's slot
  // fast path simply stays off.
  std::uint32_t counter_slots_per_thread = kDefaultCounterSlotsPerThread;
  std::size_t counter_slots_offset = 0;
  std::size_t entries_offset = 0;
  for (;;) {
    counter_slots_offset =
        AlignUp(slots_offset + slots_bytes, alignof(CounterSlot));
    const std::size_t counter_bytes =
        sizeof(CounterSlot) *
        static_cast<std::size_t>(counter_slots_per_thread) * max_threads;
    entries_offset = counter_slots_offset + counter_bytes;
    if (counter_slots_per_thread == 0 ||
        (size > entries_offset &&
         (size - entries_offset) / (sizeof(LogEntry) * max_threads) >=
             kDefaultCounterSlotsPerThread)) {
      break;
    }
    counter_slots_per_thread = 0;  // too small: rings take precedence
  }
  if (size <= entries_offset + sizeof(LogEntry) * max_threads) return 0;

  // A power of two, so every ring index is a mask, never a divide.
  const std::uint64_t entries_per_thread = std::bit_floor(
      (size - entries_offset) / (sizeof(LogEntry) * max_threads));

  std::memset(base, 0, entries_offset);
  auto* header = static_cast<AtlasAreaHeader*>(base);
  header->magic = kAtlasMagic;
  header->version = kAtlasFormatVersion;
  header->max_threads = max_threads;
  header->entries_per_thread = entries_per_thread;
  header->slots_offset = slots_offset;
  header->entries_offset = entries_offset;
  header->counter_slots_offset =
      counter_slots_per_thread > 0 ? counter_slots_offset : 0;
  header->counter_slots_per_thread = counter_slots_per_thread;
  header->robust_locks_offset =
      robust_lock_count > 0 ? robust_locks_offset : 0;
  header->robust_lock_count = robust_lock_count;
  return entries_per_thread;
}

bool AtlasArea::Validate(const void* base, std::size_t size) {
  return Check(base, size).ok();
}

Status AtlasArea::Check(const void* base, std::size_t size) {
  const auto* header = static_cast<const AtlasAreaHeader*>(base);
  if (size < sizeof(AtlasAreaHeader) || header->magic != kAtlasMagic) {
    return Status::NotFound("no Atlas log area");
  }
  if (header->version != kAtlasFormatVersion) {
    return Status::Corruption(
        "Atlas log area has format version " +
        std::to_string(header->version) + ", but this build reads only "
        "version " + std::to_string(kAtlasFormatVersion) +
        "; use the build that wrote it");
  }
  // `rows` rows of `per_row` units of `unit` bytes starting at `offset`
  // fit inside the area (overflow-safe).
  auto fits = [size](std::uint64_t offset, std::uint64_t rows,
                     std::uint64_t per_row, std::uint64_t unit) {
    return offset <= size && per_row <= (size - offset) / unit / rows;
  };
  const std::uint64_t threads = header->max_threads;
  const bool ok =
      threads > 0 && header->entries_per_thread > 0 &&
      fits(header->slots_offset, threads, 1, sizeof(ThreadLogHeader)) &&
      fits(header->entries_offset, threads, header->entries_per_thread,
           sizeof(LogEntry)) &&
      (header->counter_slots_per_thread == 0 ||
       (header->counter_slots_offset != 0 &&
        fits(header->counter_slots_offset, threads,
             header->counter_slots_per_thread, sizeof(CounterSlot)))) &&
      (header->robust_lock_count == 0 ||
       (header->robust_locks_offset != 0 &&
        fits(header->robust_locks_offset, 1, 1, sizeof(RobustTableHeader)) &&
        fits(header->robust_locks_offset + sizeof(RobustTableHeader), 1,
             header->robust_lock_count, sizeof(RobustLockWord))));
  if (!ok) {
    return Status::Corruption(
        "Atlas log area header is malformed: its geometry exceeds the "
        "area or is empty");
  }
  if (!std::has_single_bit(header->entries_per_thread)) {
    return Status::Corruption(
        "Atlas log area header is malformed: its ring capacity " +
        std::to_string(header->entries_per_thread) +
        " is not a power of two");
  }
  return Status::OK();
}

DecodedRing DecodeRing(const AtlasArea& area, std::uint32_t thread,
                       std::uint64_t head, std::uint64_t tail,
                       const RecordWindows& windows) {
  DecodedRing ring;
  const std::string name = "ring " + std::to_string(thread);
  auto defect = [&ring, &name](std::uint64_t index, const std::string& what,
                               bool unusable) {
    ring.defects.push_back(name + " " + what + " at entry " +
                           std::to_string(index));
    if (unusable && ring.unusable.empty()) ring.unusable = ring.defects.back();
  };
  if (tail < head || tail - head > area.entries_per_thread()) {
    ring.defects.push_back(name + " indices are corrupt (head " +
                           std::to_string(head) + ", tail " +
                           std::to_string(tail) + ")");
    ring.unusable = ring.defects.back();
    return ring;
  }
  DecodedOcs* open = nullptr;  // OCS being parsed; null at depth 0
  std::uint64_t depth = 0;
  for (std::uint64_t i = head; i < tail; ++i) {
    const LogEntry& entry = *area.entry(thread, i);
    ++ring.entries;
    switch (entry.kind) {
      case EntryKind::kAcquire:
        if (depth++ == 0) {
          ring.ocses.push_back(DecodedOcs{});
          open = &ring.ocses.back();
          open->id = entry.addr_offset;
          open->begin = i;
        }
        if (entry.payload != 0) open->deps.push_back(entry.payload);
        break;
      case EntryKind::kRelease:
        // A crash can cut trailing entries, but the window always starts
        // at an OCS boundary: a release with no acquire before it means
        // the trim protocol dropped the wrong entries.
        if (depth == 0) {
          defect(i, "release without matching acquire", false);
        } else if (--depth == 0) {
          open->committed = true;
          open = nullptr;
        }
        break;
      case EntryKind::kStore:
        ++ring.stores;
        // Leased stamp blocks are per-thread and monotone, so stamps
        // strictly increase along one ring.
        if (entry.seq <= ring.last_store_seq) {
          defect(i,
                 "stamp not monotone (" + std::to_string(entry.seq) +
                     " after " + std::to_string(ring.last_store_seq) + ")",
                 false);
        }
        ring.last_store_seq = entry.seq;
        if (entry.size == 0 || entry.size > 8 ||
            entry.addr_offset < windows.store_begin ||
            entry.addr_offset > windows.store_end - entry.size) {
          defect(i, "store record targets outside the arena", false);
        }
        if (open != nullptr) {
          open->undo.push_back(UndoRecord{entry.seq, entry.addr_offset,
                                          entry.payload, entry.size});
        }
        break;
      case EntryKind::kAlloc:
        // Leaked blocks are the recovery GC's concern; only the payload
        // offset is checked.
        if (entry.addr_offset < windows.alloc_begin ||
            entry.addr_offset > windows.alloc_end) {
          defect(i, "alloc record payload outside the arena", false);
        }
        break;
      default: {
        const int kind = static_cast<int>(entry.kind);
        defect(i,
               kind > kMaxKnownEntryKind
                   ? "record kind " + std::to_string(kind) +
                         " is newer than this build understands (max " +
                         std::to_string(kMaxKnownEntryKind) + ")"
                   : "invalid entry kind " + std::to_string(kind),
               true);
        break;
      }
    }
  }

  // Armed counter slots are undo records at fixed locations. One whose
  // OCS is absent from the window is safe to skip: either that OCS is
  // stable (unstable OCS logs are never trimmed), or its staged kAcquire
  // was never published — and every capture publishes the bracket
  // before its guarded store runs, so such a slot guards a store that
  // never ran.
  if (area.counter_slots_per_thread() > 0 && !ring.ocses.empty()) {
    const std::uint64_t stable =
        area.slot(thread)->stable_ocs.load(std::memory_order_relaxed);
    const CounterSlot* slots = area.counter_slots(thread);
    for (std::uint32_t s = 0; s < area.counter_slots_per_thread(); ++s) {
      const CounterSlot& cs = slots[s];
      if (cs.addr_offset == 0 || cs.ocs_id <= stable) continue;
      if (cs.version.load(std::memory_order_relaxed) % 2 != 0) continue;
      // Unstable occupants belong to the newest OCSes: search backwards.
      for (auto it = ring.ocses.rbegin(); it != ring.ocses.rend(); ++it) {
        if (it->id != cs.ocs_id) continue;
        it->undo.push_back(
            UndoRecord{cs.seq, cs.addr_offset, cs.old_value, 8});
        ++ring.slot_records;
        break;
      }
    }
  }
  return ring;
}

}  // namespace tsp::atlas
