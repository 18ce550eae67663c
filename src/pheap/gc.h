// Copyright 2026 The TSP Authors.
// Recovery-time mark-sweep garbage collector.
//
// Crashes can leak persistent memory (objects allocated but not yet
// linked into the data structure, blocks reserved but never
// initialized, free lists torn mid-update). Following Atlas — which
// "recently incorporated a recovery-time garbage collector to reclaim
// leaked memory" — recovery discards all allocator metadata, marks
// every object reachable from the heap root via registered trace
// functions, and rebuilds the free lists from the unreachable gaps.
//
// The GC is most of a crash's recovery time, so both phases run at
// memory speed:
// - The mark bitmap gives the sweep order. The mark sets one bit per
//   16-byte granule at each live block's header; walking the set bits
//   in address order visits the live blocks in address order, so the
//   sweep carves the gaps between them without a list or a sort.
// - The mark stack feeds a 16-entry FIFO prefetch ring (Cher, Hosking
//   & Vijaykumar, ASPLOS 2004). A block's first 64 bytes are prefetched
//   when its pointer enters the ring, and the block is validated,
//   marked and traced when it leaves, so up to 16 independent cache
//   misses overlap instead of one.
// - The mark stays single-threaded. It is bound by memory latency,
//   which the ring already overlaps; more marking threads would add
//   atomic bitmap updates and work sharing on the mark stack.
//
// Must run single-threaded, with no concurrent heap mutators (it is a
// recovery/quiesced-state operation).

#ifndef TSP_PHEAP_GC_H_
#define TSP_PHEAP_GC_H_

#include <cstdint>

#include "pheap/allocator.h"
#include "pheap/region.h"
#include "pheap/type_registry.h"

namespace tsp::pheap {

/// Result of a mark-sweep pass.
struct GcStats {
  /// Objects reachable from the root.
  std::uint64_t live_objects = 0;
  /// Bytes in live blocks (headers included).
  std::uint64_t live_bytes = 0;
  /// Free blocks pushed onto rebuilt free lists.
  std::uint64_t free_blocks = 0;
  /// Bytes in those free blocks.
  std::uint64_t free_bytes = 0;
  /// Bytes returned to the bump region (tail after the last live block).
  std::uint64_t tail_reclaimed_bytes = 0;
  /// Granule-sized slivers that could not be formed into a class block.
  std::uint64_t sliver_bytes = 0;
  /// Pointers encountered that failed validation (non-null, in-region,
  /// but not a valid allocated block) — should be 0 after a correct
  /// rollback.
  std::uint64_t invalid_pointers = 0;
};

/// Runs mark-sweep over `allocator`'s region: marks from the root using
/// `registry` trace functions, then resets the allocator metadata and
/// rebuilds free lists from unreachable space.
GcStats RunMarkSweepGc(Allocator* allocator, const TypeRegistry& registry);

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_GC_H_
