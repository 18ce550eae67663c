// Copyright 2026 The TSP Authors.
// AddressSlotAllocator: process-wide bookkeeping of the fixed virtual
// address ranges persistent regions map at.
//
// The paper's pointer-stability argument (§2: "today we can find empty
// virtual address ranges where a file can be reliably mapped to the
// same virtual address on every invocation") generalizes from one
// region to many: carve a normally-empty part of the x86-64 user
// address space into fixed-size slots and hand each region its own.
// Slots are the only placement: a new region takes the lowest free
// slot, and every open maps at the slot its header records. A region
// larger than one slot takes a span of consecutive slots.
//
// The window is chosen per build (kSlotBase), because sanitizer
// runtimes reserve parts of the address space for themselves. A heap
// records both its slot and its base address, so one made by a build
// with another window is refused on open instead of being mapped
// where this build's runtime cannot follow.
//
// The allocator only knows about regions opened through it in *this*
// process; collisions with foreign mappings (the program image, other
// libraries) surface as mmap failures, which MappedRegion turns into
// diagnostics naming the conflicting mapping (see backend.h) and, on
// create, a retry at the next free slot.

#ifndef TSP_PHEAP_ADDRESS_SLOTS_H_
#define TSP_PHEAP_ADDRESS_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/status.h"

namespace tsp::pheap {

class AddressSlotAllocator {
 public:
  /// First byte of the slot space (== slot 0), fixed per build.
  /// ThreadSanitizer aborts the process ("mmap at bad address") on a
  /// mapping outside its application ranges: with GCC 12's libtsan,
  /// 1 GiB fixed mappings worked from 0x0008_0000_0000 up to
  /// 0x007f_c000_0000 and aborted at 0x0080_0000_0000 and above, so
  /// its window ends where that low range does. ASan already maps
  /// 0x0040_0000_0000, so every other build keeps the high window.
#if defined(__SANITIZE_THREAD__)
  static constexpr std::uintptr_t kSlotBase = 0x004000000000ULL;
#else
  static constexpr std::uintptr_t kSlotBase = 0x200000000000ULL;
#endif
  /// Bytes per slot: 4 GiB, comfortably above the default region size
  /// while keeping the 64-slot space within an empty 256 GiB window.
  static constexpr std::uintptr_t kSlotStride = 0x100000000ULL;
  static constexpr std::uint32_t kSlotCount = 64;

  static AddressSlotAllocator& Instance();

  /// Reserves the lowest free span of consecutive slots covering `size`
  /// bytes; returns the first slot index.
  StatusOr<std::uint32_t> Acquire(std::size_t size);

  /// Reserves exactly the span starting at `slot` (used when reopening
  /// a region whose header records its slot). Fails with
  /// kFailedPrecondition when any slot of the span is already held, so
  /// two live regions can never silently clobber each other.
  Status AcquireSpecific(std::uint32_t slot, std::size_t size);

  /// Releases a span previously acquired (first slot index). Releasing
  /// an unheld slot is a no-op.
  void Release(std::uint32_t slot);

  /// Marks a span unusable for the rest of the process (a foreign
  /// mapping occupies it); Acquire skips it from now on.
  void Quarantine(std::uint32_t slot, std::size_t size);

  /// Virtual address of a slot index.
  static constexpr std::uintptr_t AddressOf(std::uint32_t slot) {
    return kSlotBase + static_cast<std::uintptr_t>(slot) * kSlotStride;
  }

  static constexpr std::uint32_t SlotsFor(std::size_t size) {
    return static_cast<std::uint32_t>((size + kSlotStride - 1) / kSlotStride);
  }

  /// Held slots right now (test introspection).
  std::uint32_t held_count() const;

 private:
  AddressSlotAllocator() = default;

  mutable std::mutex mutex_;
  /// first slot -> span length; quarantined spans use length with the
  /// high bit set so Release cannot free them.
  std::map<std::uint32_t, std::uint32_t> spans_;
};

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_ADDRESS_SLOTS_H_
