// Copyright 2026 The TSP Authors.
// Lock-free size-class allocator over a persistent region's arena,
// fronted by per-thread magazines.
//
// Design for crash tolerance: allocator metadata (bump pointer and
// free-list heads in the RegionHeader, free-list links threaded through
// free blocks, and the DRAM-resident per-thread magazines) is
// *advisory*. During failure-free operation it is exact; after a crash
// it may be arbitrarily stale, torn, or (for magazines) simply gone,
// and recovery discards it entirely — the mark-sweep GC (gc.h)
// recomputes the live set from the heap root and rebuilds the free
// lists. This mirrors the Atlas recovery-time garbage collector and
// means no allocation path ever needs logging or flushing: caching
// aggressively in DRAM is free precisely because recovery never reads
// the cache ("procrastinate, don't prevent", applied to allocation).
//
// Fast path: each thread keeps a magazine of block offsets per small
// size class, refilled by popping a batch from the shared free list
// (one CAS for the whole batch) or carving a batch from the bump
// pointer (one fetch_add), and drained back in batch when overfull or
// at thread exit. A free of another thread's block goes to that
// owner's remote-free inbox — a Treiber stack on an otherwise
// uncontended line — which the owner reclaims lazily on refill. The
// shared CAS lines are therefore touched once per ~batch operations
// instead of once per Alloc/Free (the per-thread-cache structure of
// Hoard and Makalu's NVM allocator).
//
// Thread safety: Alloc and Free are lock-free (magazines are
// thread-private; the shared structures are tagged-pointer Treiber
// stacks plus an atomic bump pointer), so the allocator never blocks a
// non-blocking data structure built on top of it (§4.1). A mutex is
// taken only on the cold paths that register or retire a thread cache.

#ifndef TSP_PHEAP_ALLOCATOR_H_
#define TSP_PHEAP_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pheap/layout.h"
#include "pheap/region.h"

namespace tsp::obs {
class Recorder;
}  // namespace tsp::obs

namespace tsp::pheap {

class ThreadCache;

/// Runtime statistics; exact while no crash intervenes. The magazine
/// counters are DRAM-only (volatile): they aggregate the live thread
/// caches plus every cache retired so far, and reset with the process.
struct AllocatorStats {
  std::uint64_t total_allocs = 0;
  std::uint64_t total_frees = 0;
  std::uint64_t bump_offset = 0;
  std::uint64_t arena_end = 0;

  /// Operations served from a thread-local magazine (no shared line).
  std::uint64_t magazine_allocs = 0;
  std::uint64_t magazine_frees = 0;
  /// Operations that fell through to the shared lists / bump pointer
  /// (magazines disabled, oversized class, or unregistered thread).
  std::uint64_t shared_allocs = 0;
  std::uint64_t shared_frees = 0;
  /// Batch transfers between magazines and the shared structures.
  std::uint64_t refill_batches = 0;   // batch pops from a shared list
  std::uint64_t carve_batches = 0;    // batch carves from the bump pointer
  std::uint64_t drain_batches = 0;    // overflow drains to a shared list
  /// Remote-free traffic: frees routed to another cache's inbox, and
  /// blocks the owner reclaimed from its own inbox.
  std::uint64_t remote_frees = 0;
  std::uint64_t remote_reclaims = 0;
  /// Caches invalidated because the GC rebuilt the metadata under them.
  std::uint64_t magazine_discards = 0;
  /// Batch-pop restarts after a head CAS failure or a torn next link
  /// (the ABA guard working as intended).
  std::uint64_t batch_pop_retries = 0;
};

class Allocator {
 public:
  /// Number of size classes in use (block sizes, header included).
  static constexpr std::size_t kNumSizeClasses = 35;

  /// Size classes eligible for magazine caching: block sizes up to
  /// 4 KiB (classes [0, kNumMagazineClasses)). Larger classes always
  /// use the shared structures — caching them would pin arena space
  /// for little CAS relief.
  static constexpr int kNumMagazineClasses = 15;

  /// Hard capacity of one magazine (offsets per class per thread); the
  /// effective capacity is magazine_capacity() and tunable below.
  static constexpr std::size_t kMagazineCapacity = 32;

  /// Remote-free inbox slots == maximum concurrently live caches.
  /// Threads past the limit fall back to the shared path.
  static constexpr std::size_t kMaxThreadCaches = 64;

  /// Largest supported payload (256 MiB block minus header).
  static std::size_t MaxPayloadSize();

  explicit Allocator(MappedRegion* region);
  ~Allocator();

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// Allocates at least `payload_size` bytes tagged with `type_id`.
  /// Returns nullptr when the arena is exhausted or the request exceeds
  /// MaxPayloadSize. The payload is 16-byte aligned and NOT zeroed
  /// (blocks recycled from free lists retain old bytes).
  void* Alloc(std::size_t payload_size, std::uint32_t type_id);

  /// Returns `payload` (obtained from Alloc) to its size-class free
  /// list or the freeing thread's magazine. Double frees are detected
  /// via the header magic and fatal.
  void Free(void* payload);

  /// Header of an allocated payload.
  static BlockHeader* HeaderOf(void* payload) {
    return reinterpret_cast<BlockHeader*>(static_cast<char*>(payload) -
                                          sizeof(BlockHeader));
  }
  static const BlockHeader* HeaderOf(const void* payload) {
    return reinterpret_cast<const BlockHeader*>(
        static_cast<const char*>(payload) - sizeof(BlockHeader));
  }

  /// Total block size (header included) used for `payload_size`, or 0 if
  /// the request is too large. Exposed for tests and the GC.
  static std::size_t BlockSizeForPayload(std::size_t payload_size);

  /// Index of the size class whose block size is exactly `block_size`,
  /// or -1 if no class matches. Every block in the arena has a class-
  /// exact size, so Free can always find its list.
  static int SizeClassOf(std::size_t block_size);

  /// Block size of size class `index`.
  static std::size_t ClassBlockSize(int index);

  /// Aggregates the persistent header counters with every live thread
  /// cache's deltas (approximate under concurrency, like the Atlas
  /// runtime stats).
  AllocatorStats GetStats() const;

  /// Number of blocks currently on each shared free list, by walking
  /// the lists. Diagnostic: call only on a quiesced heap (tsp_inspect,
  /// tests); a torn snapshot is possible against live mutators. Blocks
  /// parked in magazines or inboxes are intentionally NOT counted.
  struct FreeListLength {
    std::size_t block_size = 0;
    std::uint64_t blocks = 0;
  };
  std::vector<FreeListLength> FreeListLengths() const;

  /// Drains the calling thread's magazines and remote-free inbox back
  /// to the shared free lists, folds its stat deltas into the region
  /// header, and retires the cache (a later Alloc re-registers). Call
  /// before an orderly thread exit or heap shutdown; crashed threads
  /// skip it by definition — the recovery GC reclaims their parked
  /// blocks. Thread exit and allocator destruction also drain
  /// automatically.
  void FlushCurrentThreadCache();

  /// Baseline toggle: with magazines disabled every operation uses the
  /// shared structures (the pre-magazine behavior, kept runnable for
  /// bench_alloc A/B runs and as a fallback). Honors the
  /// TSP_ALLOC_MAGAZINES environment variable ("0" disables) at
  /// construction. Flip only while no other thread is allocating.
  void set_magazines_enabled(bool enabled);
  bool magazines_enabled() const { return magazines_enabled_; }

  /// Effective per-class magazine capacity in [2, kMagazineCapacity].
  /// Honors TSP_ALLOC_MAGAZINE_CAP at construction; tiny values force
  /// constant refill/drain traffic (crash-injection tests use this the
  /// way the seq-lease tests use seq_block_size=2).
  void set_magazine_capacity(std::uint32_t capacity);
  std::uint32_t magazine_capacity() const { return magazine_capacity_; }

  /// --- recovery interface (single-threaded contexts only) ---

  /// Clears every free list and remote-free inbox, resets the bump
  /// pointer, and invalidates every thread cache (their parked offsets
  /// now alias rebuilt free space; each cache notices the epoch bump
  /// on its next operation and discards itself — discard, not drain:
  /// the GC already owns those bytes). Restarts the persistent totals
  /// at `live_objects` allocations and no frees: a killed session's
  /// magazine counts were never folded into them. The GC calls this
  /// before re-populating free lists from swept gaps.
  void ResetMetadata(std::uint64_t bump_offset, std::uint64_t live_objects);

  /// Formats [offset, offset + block_size) as a free block of an exact
  /// class size and pushes it. Requires SizeClassOf(block_size) >= 0.
  void PushFreeBlock(std::uint64_t offset, std::size_t block_size);

  MappedRegion* region() const { return region_; }

  /// Flight recorder of the owning heap; thread caches registered after
  /// this call trace their magazine refills/drains into it. May be null
  /// (tracing off). Set once right after construction, before mutators.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  /// Epoch observed by thread caches; bumped by ResetMetadata.
  std::uint64_t cache_epoch() const {
    return cache_epoch_.load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadCache;

  /// One remote-free inbox. Its line is touched by remote freers of
  /// this owner (rarely two at once) and by the owner's reclaim — not
  /// by every thread, unlike a shared free-list head.
  struct alignas(kCacheLine) RemoteSlot {
    std::atomic<TaggedOffset> head{0};
    /// 1 while a live cache owns the slot. A push racing with retire
    /// can strand blocks on an unclaimed slot; they are advisory and
    /// reclaimed on the next claim, ResetMetadata, or destruction.
    std::atomic<std::uint32_t> claimed{0};
  };

  /// Shared-structure paths (the seed fast path; now also the fallback
  /// and baseline). `owner_tag` is stamped into the header.
  void* AllocShared(int size_class, std::size_t block_size,
                    std::uint32_t type_id, std::uint16_t owner_tag);
  void SharedFree(int size_class, std::uint64_t block_offset);

  void PushToList(int size_class, std::uint64_t block_offset);
  std::uint64_t PopFromList(int size_class);
  /// Pushes a pre-linked chain of `count` blocks with one CAS.
  /// `last_offset`'s next link is rewritten to splice onto the head.
  void PushChainToList(int size_class, std::uint64_t first_offset,
                       std::uint64_t last_offset, std::uint64_t count);
  /// Pops up to `want` blocks from one list with a single successful
  /// CAS, validating every next link against the arena bounds while
  /// walking (a torn link under ABA forces a restart, never a wild
  /// read). Returns the number popped into `out`.
  std::size_t BatchPopFromList(int size_class, std::size_t want,
                               std::uint64_t* out);
  /// Reserves `want` contiguous blocks with one fetch_add and formats
  /// them as free blocks. May return fewer near arena exhaustion.
  std::size_t BatchCarve(std::size_t block_size, std::size_t want,
                         std::uint64_t* out);

  /// Calling thread's cache for this allocator, registering on first
  /// use. nullptr when magazines are off or the slots are exhausted.
  ThreadCache* GetCache();
  ThreadCache* RegisterThreadCache();
  /// Drains + unregisters one cache (registry mutex held inside).
  void RetireCache(ThreadCache* cache);
  /// Drain + stat-fold half of RetireCache; requires cache_mutex_.
  void RetireCacheLocked(ThreadCache* cache);
  /// Pushes `block_offset` onto inbox `slot` if it is claimed; a false
  /// return means the freer must keep the block on its own side.
  bool RemoteFreeTo(std::uint32_t slot, std::uint64_t block_offset);
  /// Empties inbox `slot` onto the shared free lists.
  void DrainRemoteSlot(std::uint32_t slot);

  MappedRegion* region_;
  RegionHeader* header_;
  obs::Recorder* recorder_ = nullptr;
  const std::uint64_t instance_id_;
  bool magazines_enabled_;
  std::uint32_t magazine_capacity_;
  std::atomic<std::uint64_t> cache_epoch_{1};
  std::unique_ptr<RemoteSlot[]> remote_slots_;

  mutable std::mutex cache_mutex_;
  std::vector<std::unique_ptr<ThreadCache>> caches_;
  /// Volatile counter residue of retired caches (persistent counters
  /// are folded into the header instead).
  AllocatorStats retired_stats_;
};

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_ALLOCATOR_H_
