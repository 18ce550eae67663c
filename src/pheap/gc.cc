#include "pheap/gc.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tsp::pheap {
namespace {

// Entries of the mark's prefetch ring.
constexpr std::size_t kPrefetchDepth = 16;

// Granules covered by one mark-bitmap word.
constexpr std::uint64_t kWordBits = 64;

// Validates that `payload` points at the payload of a plausible
// allocated block and returns its header offset, or 0.
std::uint64_t ValidateBlock(const MappedRegion* region, const void* payload) {
  const RegionHeader* rh = region->header();
  if (payload == nullptr || !region->Contains(payload)) return 0;
  const std::uint64_t payload_offset = region->ToOffset(payload);
  if (payload_offset < rh->arena_offset + sizeof(BlockHeader)) return 0;
  const std::uint64_t header_offset = payload_offset - sizeof(BlockHeader);
  if (header_offset % kGranule != 0) return 0;
  const auto* block = static_cast<const BlockHeader*>(
      region->FromOffset(header_offset));
  if (block->magic != BlockHeader::kAllocatedMagic) return 0;
  // Allocated headers pack an advisory magazine owner tag into the high
  // bits; every size computation must go through size().
  const std::uint64_t size = block->size();
  if (size % kGranule != 0 || size < 2 * kGranule) {
    return 0;
  }
  if (Allocator::SizeClassOf(size) < 0) return 0;
  const std::uint64_t arena_end = rh->arena_offset + rh->arena_size;
  if (header_offset + size > arena_end) return 0;
  return header_offset;
}

}  // namespace

GcStats RunMarkSweepGc(Allocator* allocator, const TypeRegistry& registry) {
  MappedRegion* region = allocator->region();
  RegionHeader* rh = region->header();
  GcStats stats;

  TSP_COUNTER_INC("gc.runs");
  [[maybe_unused]] const auto mark_start = std::chrono::steady_clock::now();

  // --- mark ---
  // One bit per arena granule, set at the header granule of every live
  // block, so the set bits in address order are the live blocks in
  // address order: the sweep needs no other record of them.
  const std::uint64_t arena_begin = rh->arena_offset;
  const std::uint64_t arena_end = arena_begin + rh->arena_size;
  std::vector<std::uint64_t> marks(
      ((arena_end - arena_begin) / kGranule + kWordBits - 1) / kWordBits);
  // End of the highest live block: the rebuilt bump pointer.
  std::uint64_t new_bump = arena_begin;

  // Only in-region pointers are kept: pointers to non-heap memory (e.g.
  // static data) are legal and not counted as invalid.
  std::vector<const void*> pending;
  const PointerVisitor visit = [&pending, region](const void* p) {
    if (p != nullptr && region->Contains(p)) pending.push_back(p);
  };
  const std::uint64_t root = rh->root_offset.load(std::memory_order_relaxed);
  if (root != 0) visit(region->FromOffset(root));

  // Pointers leave the mark stack through a FIFO ring (Cher, Hosking &
  // Vijaykumar, ASPLOS 2004): each block is prefetched as its pointer
  // enters and validated, marked and traced only as it leaves, after
  // the kPrefetchDepth - 1 entries ahead of it. Up to kPrefetchDepth
  // independent cache misses are in flight instead of one.
  const void* ring[kPrefetchDepth];
  std::size_t ring_head = 0;
  std::size_t ring_size = 0;
  std::vector<std::uint32_t> warned_types;
  for (;;) {
    while (ring_size < kPrefetchDepth && !pending.empty()) {
      const void* payload = pending.back();
      pending.pop_back();
      // The block's first 64 bytes: the header and the payload fields a
      // trace function reads first. They straddle two cache lines
      // unless the block starts one.
      const char* header =
          static_cast<const char*>(payload) - sizeof(BlockHeader);
      __builtin_prefetch(header);
      __builtin_prefetch(header + kCacheLine - 1);
      ring[(ring_head + ring_size++) % kPrefetchDepth] = payload;
    }
    if (ring_size == 0) break;
    const void* payload = ring[ring_head];
    ring_head = (ring_head + 1) % kPrefetchDepth;
    --ring_size;

    const std::uint64_t header_offset = ValidateBlock(region, payload);
    if (header_offset == 0) {
      ++stats.invalid_pointers;
      continue;
    }
    const std::uint64_t granule = (header_offset - arena_begin) / kGranule;
    std::uint64_t& word = marks[granule / kWordBits];
    const std::uint64_t bit = 1ULL << (granule % kWordBits);
    if ((word & bit) != 0) continue;
    word |= bit;

    const auto* block =
        static_cast<const BlockHeader*>(region->FromOffset(header_offset));
    const std::uint64_t size = block->size();
    ++stats.live_objects;
    stats.live_bytes += size;
    new_bump = std::max(new_bump, header_offset + size);

    if (block->type_id != 0) {
      const TypeInfo* info = registry.Find(block->type_id);
      if (info != nullptr && info->trace) {
        info->trace(block + 1, visit);
      } else if (info == nullptr &&
                 std::find(warned_types.begin(), warned_types.end(),
                           block->type_id) == warned_types.end()) {
        warned_types.push_back(block->type_id);
        TSP_LOG(WARNING) << "GC: unregistered type id " << block->type_id
                         << "; treating objects of this type as leaves";
      }
    }
  }

  // --- sweep: rebuild allocator metadata from the complement ---
  [[maybe_unused]] const auto sweep_start = std::chrono::steady_clock::now();
  TSP_HISTOGRAM_OBSERVE(
      "gc.mark_us", static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::microseconds>(
                            sweep_start - mark_start)
                            .count()));

  const std::uint64_t old_bump = std::min<std::uint64_t>(
      rh->bump_offset.load(std::memory_order_relaxed), arena_end);
  stats.tail_reclaimed_bytes = old_bump > new_bump ? old_bump - new_bump : 0;

  // Discards every advisory structure at once: free lists, bump pointer,
  // remote-free inboxes, and (via the epoch bump) all per-thread
  // magazines; the allocation totals restart at the live count. Recovery itself needs nothing beyond this — magazines are
  // DRAM-only and were never authoritative, so a crash with parked
  // blocks just makes those bytes unreachable, and the sweep below
  // re-carves them.
  allocator->ResetMetadata(new_bump, stats.live_objects);

  auto carve_gap = [&](std::uint64_t start, std::uint64_t end) {
    std::uint64_t at = start;
    while (end - at >= 2 * kGranule) {
      // Largest class block that fits the remaining gap.
      std::size_t best = 0;
      for (int c = Allocator::kNumSizeClasses - 1; c >= 0; --c) {
        const std::size_t block_size = Allocator::ClassBlockSize(c);
        if (block_size <= end - at) {
          best = block_size;
          break;
        }
      }
      if (best == 0) break;
      allocator->PushFreeBlock(at, best);
      ++stats.free_blocks;
      stats.free_bytes += best;
      at += best;
    }
    stats.sliver_bytes += end - at;
  };

  // Walks the live blocks in address order, carving each gap before
  // one. Gaps lie strictly below the next live header, so carving never
  // overwrites a header the walk has yet to read. No bit is set at or
  // above new_bump, and the space between the last live block and the
  // old bump pointer returns to the bump region (new_bump == cursor at
  // the end), so there is no trailing gap to carve.
  std::uint64_t cursor = arena_begin;
  const std::uint64_t words =
      ((new_bump - arena_begin) / kGranule + kWordBits - 1) / kWordBits;
  for (std::uint64_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = marks[w]; bits != 0; bits &= bits - 1) {
      const std::uint64_t offset =
          arena_begin +
          (w * kWordBits + static_cast<std::uint64_t>(std::countr_zero(bits))) *
              kGranule;
      if (offset > cursor) carve_gap(cursor, offset);
      const auto* block =
          static_cast<const BlockHeader*>(region->FromOffset(offset));
      cursor = std::max(cursor, offset + block->size());
    }
  }

  TSP_HISTOGRAM_OBSERVE(
      "gc.sweep_us", static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count()));
  return stats;
}

}  // namespace tsp::pheap
