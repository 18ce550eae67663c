// Copyright 2026 The TSP Authors.
// On-media layout of a persistent heap region.
//
// A region is a single file mapped MAP_SHARED at a fixed virtual
// address, so pointers stored inside it remain valid across program
// invocations with no swizzling (paper §2: "today we can find empty
// virtual address ranges where a file can be reliably mapped to the
// same virtual address on every invocation").
//
//   +-------------------+ 0
//   | RegionHeader      |   control block, allocator metadata
//   +-------------------+ kHeaderSize
//   | runtime area      |   reserved for the resilience runtime
//   |                   |   (Atlas undo logs, lock words)
//   +-------------------+ runtime_area_offset + runtime_area_size
//   | arena             |   allocator-managed application objects
//   +-------------------+ region_size

#ifndef TSP_PHEAP_LAYOUT_H_
#define TSP_PHEAP_LAYOUT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace tsp::pheap {

/// Identifies a TSP persistent heap file.
inline constexpr std::uint64_t kRegionMagic = 0x3150414548505354ULL;  // "TSPHEAP1"
/// Version 2: RegionHeader::address_slot (the reserved word after
/// clean_shutdown) records the AddressSlotAllocator slot.
/// Version 3: the allocator hot fields of the RegionHeader (bump
/// pointer, free-list heads, stat counters) are padded onto distinct
/// cache lines (the heads one line each), and the high 16 bits of
/// BlockHeader::block_size carry an advisory magazine owner tag.
/// Version 4: BlockHeader::block_size holds only the size; the owner
/// tag is gone with the remote-free inboxes it routed to.
/// Offsets are pinned by static_asserts below; bump kLayoutVersion
/// whenever any of them, or the meaning of a field, changes.
inline constexpr std::uint32_t kLayoutVersion = 4;

/// Smallest unit of arena accounting; block sizes and alignments are
/// multiples of this.
inline constexpr std::size_t kGranule = 16;

/// Alignment quantum for fields that must not share a line with an
/// unrelated contended field (false-sharing avoidance).
inline constexpr std::size_t kCacheLine = 64;

/// Bytes reserved for the RegionHeader at offset 0.
inline constexpr std::size_t kHeaderSize = 4096;

/// Number of allocation size classes (see allocator.h for the table).
inline constexpr std::size_t kMaxSizeClasses = 40;

/// A tagged offset used as a lock-free list head: low 48 bits are a byte
/// offset from the region base (0 = null), high 16 bits an ABA tag.
using TaggedOffset = std::uint64_t;

inline constexpr std::uint64_t kOffsetMask = (1ULL << 48) - 1;

constexpr std::uint64_t OffsetOf(TaggedOffset t) { return t & kOffsetMask; }
constexpr std::uint16_t TagOf(TaggedOffset t) {
  return static_cast<std::uint16_t>(t >> 48);
}
constexpr TaggedOffset MakeTagged(std::uint16_t tag, std::uint64_t offset) {
  return (static_cast<std::uint64_t>(tag) << 48) | (offset & kOffsetMask);
}

/// One shared free-list head on its own cache line. Threads of
/// different size classes must not invalidate each other's lines when
/// they CAS adjacent heads, and a head CAS must not invalidate the
/// read-mostly geometry fields either.
struct alignas(kCacheLine) PaddedFreeListHead {
  std::atomic<TaggedOffset> head{0};
  char padding_[kCacheLine - sizeof(std::atomic<TaggedOffset>)];
};

static_assert(sizeof(PaddedFreeListHead) == kCacheLine);

/// Control block at offset 0 of every region. All mutable fields are
/// lock-free atomics; they live in kernel-persistent memory, so their
/// latest values survive process crashes (TSP). After an *unclean*
/// shutdown the allocator fields are treated as advisory and rebuilt by
/// the recovery-time GC.
struct RegionHeader {
  // --- identity and geometry (read-mostly after creation) ---
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t header_size;
  /// Virtual address the region must be mapped at.
  std::uint64_t base_address;
  std::uint64_t region_size;
  std::uint64_t runtime_area_offset;
  std::uint64_t runtime_area_size;
  std::uint64_t arena_offset;
  std::uint64_t arena_size;

  /// Incremented on every open; lets recovery code and logs distinguish
  /// sessions.
  std::atomic<std::uint64_t> generation;
  /// 1 iff the previous session called CloseClean. Cleared on open.
  std::atomic<std::uint32_t> clean_shutdown;
  /// AddressSlotAllocator slot this region was placed in. Every open
  /// checks that the slot lies in this build's window and that
  /// base_address is its address, so a header edited on disk, or a
  /// heap made by a build with another slot window, can never silently
  /// clobber another region's range.
  std::uint32_t address_slot;

  /// Offset of the application root object (0 = unset). The root is the
  /// entry point from which all live persistent data must be reachable
  /// (get_root / set_root in the paper).
  std::atomic<std::uint64_t> root_offset;

  /// Global sequence number for resilience-runtime events (undo-log
  /// entry stamps). Lives here so it persists with the heap. Leased in
  /// per-thread blocks (runtime.h), so writes are rare enough to share
  /// the identity lines.
  std::atomic<std::uint64_t> global_sequence;

  // --- allocator metadata (advisory after a crash) ---
  // Each contended field group owns whole cache lines: the bump pointer
  // is fetch_add'ed by every carving thread, and every free-list head
  // is CAS'ed independently. Before version 3 all of them (plus the
  // stat counters) shared two lines, so unrelated size classes — and
  // pure readers of the geometry above — bounced one line around.

  /// Next never-allocated byte, as an offset; grows monotonically.
  alignas(kCacheLine) std::atomic<std::uint64_t> bump_offset;
  /// Lock-free free-list heads, one per size class, one line per head.
  alignas(kCacheLine) PaddedFreeListHead free_lists[kMaxSizeClasses];

  // --- statistics (monotonic, approximate after crashes) ---
  // Only written when a thread cache retires or by the magazine-free
  // shared fallback path, never per hot-path operation; live per-thread
  // deltas are aggregated by Allocator::GetStats.
  alignas(kCacheLine) std::atomic<std::uint64_t> total_allocs;
  std::atomic<std::uint64_t> total_frees;

  std::atomic<TaggedOffset>& free_list_head(std::size_t size_class) {
    return free_lists[size_class].head;
  }
  const std::atomic<TaggedOffset>& free_list_head(
      std::size_t size_class) const {
    return free_lists[size_class].head;
  }
};

// The persistent layout contract since version 3. Any change that moves
// one of these offsets must bump kLayoutVersion (old files are refused
// at open, never reinterpreted).
static_assert(offsetof(RegionHeader, bump_offset) == 2 * kCacheLine,
              "bump pointer must start its own cache line");
static_assert(offsetof(RegionHeader, free_lists) == 3 * kCacheLine,
              "free-list heads must not share the bump pointer's line");
static_assert(offsetof(RegionHeader, total_allocs) ==
                  3 * kCacheLine + kMaxSizeClasses * kCacheLine,
              "stat counters must not share a free-list head's line");
static_assert(sizeof(RegionHeader) <= kHeaderSize,
              "RegionHeader must fit in the reserved header block");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

/// Per-block header preceding every arena allocation. A block is valid
/// only if its magic matches; recovery-time GC trusts headers only for
/// blocks reachable from the root (which are fully initialized before
/// they can become reachable).
struct BlockHeader {
  static constexpr std::uint32_t kAllocatedMagic = 0xA110CA7Eu;
  static constexpr std::uint32_t kFreeMagic = 0xF4EEB10Cu;

  std::uint32_t magic;
  /// Application type id, used by the GC to find the type's trace
  /// function. 0 = untyped leaf (no embedded pointers).
  std::uint32_t type_id;
  /// Total block size in bytes, header included; a multiple of kGranule.
  std::uint64_t block_size;
};

static_assert(sizeof(BlockHeader) == kGranule);

/// First 8 payload bytes of a free block link to the next free block
/// (byte offset from region base; 0 = end of list).
struct FreeBlockPayload {
  std::uint64_t next_offset;
};

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_LAYOUT_H_
