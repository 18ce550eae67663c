#include "pheap/allocator.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "analysis/race_hooks.h"
#include "common/logging.h"
#include "common/owner_counter.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "pheap/sanitizer.h"

namespace tsp::pheap {
namespace {

// Block sizes (header included). Fine-grained ~1.5x spacing up to 64 KiB,
// power-of-two beyond. Exactly Allocator::kNumSizeClasses entries.
constexpr std::size_t kClassBlockSizes[] = {
    32,        48,        64,        96,        128,      192,      256,
    384,       512,       768,       1024,      1536,     2048,     3072,
    4096,      6144,      8192,      12288,     16384,    24576,    32768,
    49152,     65536,     131072,    262144,    524288,   1048576,  2097152,
    4194304,   8388608,   16777216,  33554432,  67108864, 134217728,
    268435456,
};
static_assert(sizeof(kClassBlockSizes) / sizeof(kClassBlockSizes[0]) ==
              Allocator::kNumSizeClasses);
static_assert(Allocator::kNumSizeClasses <= kMaxSizeClasses);
static_assert(Allocator::kNumMagazineClasses > 0 &&
              static_cast<std::size_t>(Allocator::kNumMagazineClasses) <=
                  Allocator::kNumSizeClasses);
// Magazine eligibility boundary: everything the magazines cache is a
// small block (the boundary itself is asserted so a class-table edit
// cannot silently turn 128 MiB blocks into per-thread cached ones).
static_assert(kClassBlockSizes[Allocator::kNumMagazineClasses - 1] == 4096);

// O(1) class lookup for small sizes: granule count → smallest class
// that fits. The allocation fast path resolves the class three times
// per alloc/free pair (round up, classify, classify on free), so the
// binary search is replaced by one table load for everything the
// magazines serve.
constexpr std::size_t kSmallLookupLimit = 4096;
constexpr auto kSmallClassByGranule = [] {
  std::array<std::uint8_t, kSmallLookupLimit / kGranule + 1> table{};
  for (std::size_t g = 0; g < table.size(); ++g) {
    std::uint8_t size_class = 0;
    while (kClassBlockSizes[size_class] < g * kGranule) ++size_class;
    table[g] = size_class;
  }
  return table;
}();

std::atomic<std::uint64_t> g_next_allocator_id{1};

/// Live-allocator registry. Thread-exit drains consult it so a TLS
/// destructor never touches an allocator that died before the thread
/// did. Heap-allocated and intentionally leaked: TLS destructors of
/// exiting threads may run during process teardown, after function-
/// local statics would have been destroyed.
struct LiveRegistry {
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, Allocator*>> live;
};

LiveRegistry& Registry() {
  static LiveRegistry* registry = new LiveRegistry();
  return *registry;
}

Allocator* FindLiveLocked(LiveRegistry& registry, std::uint64_t id) {
  for (const auto& [live_id, allocator] : registry.live) {
    if (live_id == id) return allocator;
  }
  return nullptr;
}

}  // namespace

/// DRAM-resident per-thread allocation cache: one magazine of block
/// offsets per small size class, plus volatile stat counters. Entirely
/// advisory — nothing in here is ever needed (or read) by recovery; a
/// crash simply forgets it and the recovery GC reclaims the parked
/// blocks as unreachable space.
class ThreadCache {
 public:
  ThreadCache(Allocator* allocator, std::uint32_t slot)
      : allocator_(allocator),
        slot_(slot),
        owner_tag_(static_cast<std::uint16_t>(slot + 1)),
        epoch_(allocator->cache_epoch()) {}

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  void* Alloc(int size_class, std::size_t block_size, std::uint32_t type_id) {
    CheckEpoch();
    Magazine& magazine = mags_[size_class];
    if (TSP_PREDICT_FALSE(magazine.count == 0)) {
      Refill(size_class, block_size);
      if (magazine.count == 0) {
        // Arena exhausted (or everything parked elsewhere): last-resort
        // single-block attempt against the shared structures.
        return allocator_->AllocShared(size_class, block_size, type_id,
                                       owner_tag_);
      }
    }
    const std::uint64_t offset = magazine.slots[--magazine.count];
    auto* block =
        static_cast<BlockHeader*>(allocator_->region_->FromOffset(offset));
    // Allocator metadata writes are blessed under TSPSan: headers are
    // advisory (recovery rebuilds them) and never undo-logged.
    ScopedWriteWindow window(block, sizeof(BlockHeader));
    block->magic = BlockHeader::kAllocatedMagic;
    block->type_id = type_id;
    block->block_size = BlockHeader::PackSize(block_size, owner_tag_);
    Bump(magazine_allocs_);
    return block + 1;
  }

  /// Drain-and-unregister via the owning allocator (the TLS destructor
  /// below cannot call the private Allocator::RetireCache itself).
  void Retire() { allocator_->RetireCache(this); }

  void Free(int size_class, std::uint64_t offset, std::uint16_t owner_tag) {
    CheckEpoch();
    if (owner_tag != 0 && owner_tag != owner_tag_ &&
        allocator_->RemoteFreeTo(static_cast<std::uint32_t>(owner_tag - 1),
                                 offset)) {
      Bump(remote_frees_);
      return;
    }
    Magazine& magazine = mags_[size_class];
    while (TSP_PREDICT_FALSE(magazine.count >=
                             allocator_->magazine_capacity_)) {
      DrainHalf(size_class);
    }
    magazine.slots[magazine.count++] = offset;
    Bump(magazine_frees_);
  }

 private:
  friend class Allocator;

  struct Magazine {
    std::uint32_t count = 0;
    std::uint64_t slots[Allocator::kMagazineCapacity];
  };

  /// The GC rebuilt the shared metadata under us: every parked offset
  /// may now alias a rebuilt free block, so the only safe move is to
  /// forget them all (the GC already accounted those bytes).
  void CheckEpoch() {
    const std::uint64_t epoch = allocator_->cache_epoch();
    if (TSP_PREDICT_FALSE(epoch != epoch_)) {
      DiscardAll();
      epoch_ = epoch;
    }
  }

  void DiscardAll() {
    for (Magazine& magazine : mags_) magazine.count = 0;
    Bump(discards_);
  }

  /// Refill order: own remote-free inbox first (free, uncontended),
  /// then a batch pop from the shared list (one CAS), then a batch
  /// carve off the bump pointer (one fetch_add).
  void Refill(int size_class, std::size_t block_size) {
    ReclaimInbox();
    Magazine& magazine = mags_[size_class];
    if (magazine.count > 0) return;
    const std::size_t want =
        std::max<std::size_t>(1, allocator_->magazine_capacity_ / 2);
    std::size_t got =
        allocator_->BatchPopFromList(size_class, want, magazine.slots);
    if (got > 0) {
      magazine.count = static_cast<std::uint32_t>(got);
      Bump(refill_batches_);
      TSP_TRACE_EVENT(trace_, obs::EventCode::kMagazineRefill,
                      static_cast<std::uint64_t>(size_class), got);
      return;
    }
    got = allocator_->BatchCarve(block_size, want, magazine.slots);
    if (got > 0) {
      magazine.count = static_cast<std::uint32_t>(got);
      Bump(carve_batches_);
      TSP_TRACE_EVENT(trace_, obs::EventCode::kMagazineRefill,
                      static_cast<std::uint64_t>(size_class), got);
    }
  }

  /// Swaps the whole inbox chain out with one exchange and parks the
  /// blocks (they arrive mixed-class); magazines that are already full
  /// pass the overflow straight to the shared lists in per-class
  /// chains.
  void ReclaimInbox() {
    Allocator::RemoteSlot& slot = allocator_->remote_slots_[slot_];
    TaggedOffset head = slot.head.load(std::memory_order_relaxed);
    if (OffsetOf(head) == 0) return;
    head = slot.head.exchange(MakeTagged(TagOf(head) + 1, 0),
                              std::memory_order_acquire);
    std::uint64_t cur = OffsetOf(head);
    std::uint64_t overflow_first[Allocator::kNumMagazineClasses] = {};
    std::uint64_t overflow_prev[Allocator::kNumMagazineClasses] = {};
    std::uint64_t overflow_count[Allocator::kNumMagazineClasses] = {};
    std::uint64_t reclaimed = 0;
    while (cur != 0) {
      auto* payload = static_cast<FreeBlockPayload*>(
          allocator_->region_->FromOffset(cur + sizeof(BlockHeader)));
      const std::uint64_t next = payload->next_offset;
      const auto* block = static_cast<const BlockHeader*>(
          allocator_->region_->FromOffset(cur));
      const int size_class = Allocator::SizeClassOf(block->size());
      TSP_CHECK(size_class >= 0 &&
                size_class < Allocator::kNumMagazineClasses)
          << "corrupt block in remote-free inbox";
      Magazine& magazine = mags_[size_class];
      if (magazine.count < allocator_->magazine_capacity_) {
        magazine.slots[magazine.count++] = cur;
      } else {
        // Prepend to this class's overflow chain (links are scratch
        // bytes of free blocks; blessed writes).
        ScopedWriteWindow window(payload, sizeof(FreeBlockPayload));
        payload->next_offset = overflow_first[size_class];
        if (overflow_first[size_class] == 0) overflow_prev[size_class] = cur;
        overflow_first[size_class] = cur;
        ++overflow_count[size_class];
      }
      ++reclaimed;
      cur = next;
    }
    for (int c = 0; c < Allocator::kNumMagazineClasses; ++c) {
      if (overflow_count[c] == 0) continue;
      allocator_->PushChainToList(c, overflow_first[c], overflow_prev[c],
                                  overflow_count[c]);
      Bump(drain_batches_);
    }
    Bump(remote_reclaims_, reclaimed);
  }

  /// Returns the older half of the magazine to the shared list as one
  /// pre-linked chain (one CAS).
  void DrainHalf(int size_class) {
    Magazine& magazine = mags_[size_class];
    TSP_DCHECK_GT(magazine.count, 0u);
    const std::uint32_t n = std::max(1u, magazine.count / 2);
    for (std::uint32_t i = 0; i + 1 < n; ++i) {
      auto* payload = static_cast<FreeBlockPayload*>(
          allocator_->region_->FromOffset(magazine.slots[i] +
                                          sizeof(BlockHeader)));
      ScopedWriteWindow window(payload, sizeof(FreeBlockPayload));
      payload->next_offset = magazine.slots[i + 1];
    }
    allocator_->PushChainToList(size_class, magazine.slots[0],
                                magazine.slots[n - 1], n);
    magazine.count -= n;
    std::memmove(magazine.slots, magazine.slots + n,
                 magazine.count * sizeof(magazine.slots[0]));
    Bump(drain_batches_);
    TSP_TRACE_EVENT(trace_, obs::EventCode::kMagazineDrain,
                    static_cast<std::uint64_t>(size_class), n);
  }

  /// Orderly retirement: every parked block goes back to the shared
  /// lists. With a stale epoch the parked offsets belong to the GC and
  /// are forgotten instead.
  void DrainAll() {
    if (epoch_ != allocator_->cache_epoch()) {
      DiscardAll();
      return;
    }
    allocator_->DrainRemoteSlot(slot_);
    for (int c = 0; c < Allocator::kNumMagazineClasses; ++c) {
      Magazine& magazine = mags_[c];
      if (magazine.count == 0) continue;
      for (std::uint32_t i = 0; i + 1 < magazine.count; ++i) {
        auto* payload = static_cast<FreeBlockPayload*>(
            allocator_->region_->FromOffset(magazine.slots[i] +
                                            sizeof(BlockHeader)));
        ScopedWriteWindow window(payload, sizeof(FreeBlockPayload));
        payload->next_offset = magazine.slots[i + 1];
      }
      allocator_->PushChainToList(c, magazine.slots[0],
                                  magazine.slots[magazine.count - 1],
                                  magazine.count);
      magazine.count = 0;
      Bump(drain_batches_);
    }
  }

  Allocator* allocator_;
  std::uint32_t slot_;
  std::uint16_t owner_tag_;
  std::uint64_t epoch_;
  /// Flight-recorder handle for this thread (null when tracing is off).
  /// Bound at registration; refill/drain are the only traced paths —
  /// per-block events would blow the ring and the overhead budget.
  obs::TraceWriter* trace_ = nullptr;
  Magazine mags_[Allocator::kNumMagazineClasses];

  // Stat counters: written by the owning thread, read concurrently by
  // GetStats (relaxed loads; see Bump in common/owner_counter.h).
  std::atomic<std::uint64_t> magazine_allocs_{0};
  std::atomic<std::uint64_t> magazine_frees_{0};
  std::atomic<std::uint64_t> refill_batches_{0};
  std::atomic<std::uint64_t> carve_batches_{0};
  std::atomic<std::uint64_t> drain_batches_{0};
  std::atomic<std::uint64_t> remote_frees_{0};
  std::atomic<std::uint64_t> remote_reclaims_{0};
  std::atomic<std::uint64_t> discards_{0};
  std::atomic<std::uint64_t> batch_pop_retries_{0};
};

namespace {

/// Per-thread bindings (allocator instance id → cache). The wrapper's
/// destructor drains every cache whose allocator is still alive, so an
/// orderly thread exit parks nothing (a crashed thread never runs it —
/// which is fine, that is what the recovery GC is for).
struct TlsCaches {
  struct Binding {
    std::uint64_t instance_id;
    ThreadCache* cache;  // nullptr: slots were exhausted, use shared path
  };
  std::vector<Binding> bindings;

  ~TlsCaches();
};

/// One-entry fast binding in front of the vector. Trivially
/// destructible, so access compiles to a plain TLS load — no
/// init-guard call on the allocation fast path (unlike tls_caches,
/// whose registered destructor makes every access go through the
/// thread-local wrapper function).
struct FastBinding {
  std::uint64_t instance_id;
  ThreadCache* cache;
};

thread_local TlsCaches tls_caches;
thread_local FastBinding tls_fast_binding{0, nullptr};

TlsCaches::~TlsCaches() {
  // The fast binding aliases an entry below; clear it first so a later
  // TLS destructor that still allocates misses and re-resolves.
  tls_fast_binding = {0, nullptr};
  LiveRegistry& registry = Registry();
  for (const Binding& binding : bindings) {
    if (binding.cache == nullptr) continue;
    std::lock_guard<std::mutex> lock(registry.mutex);
    Allocator* allocator = FindLiveLocked(registry, binding.instance_id);
    if (allocator != nullptr) binding.cache->Retire();
    // A dead allocator already drained (or discarded) this cache and
    // owns its memory; never dereference the stale pointer.
  }
}

}  // namespace

std::size_t Allocator::MaxPayloadSize() {
  return kClassBlockSizes[kNumSizeClasses - 1] - sizeof(BlockHeader);
}

Allocator::Allocator(MappedRegion* region)
    : region_(region),
      header_(region->header()),
      instance_id_(g_next_allocator_id.fetch_add(1)),
      magazines_enabled_(true),
      magazine_capacity_(kMagazineCapacity),
      remote_slots_(new RemoteSlot[kMaxThreadCaches]) {
  // Diagnostics attach read-only regions; magazines must never be
  // created there (draining one would write to the mapping).
  if (region->read_only()) magazines_enabled_ = false;
  if (const char* env = std::getenv("TSP_ALLOC_MAGAZINES");
      env != nullptr && std::strcmp(env, "0") == 0) {
    magazines_enabled_ = false;
  }
  if (const char* env = std::getenv("TSP_ALLOC_MAGAZINE_CAP");
      env != nullptr && env[0] != '\0') {
    set_magazine_capacity(
        static_cast<std::uint32_t>(std::strtoul(env, nullptr, 0)));
  }
  LiveRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.live.emplace_back(instance_id_, this);
}

Allocator::~Allocator() {
  {
    LiveRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto& live = registry.live;
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->first == instance_id_) {
        live.erase(it);
        break;
      }
    }
  }
  // Quiesced by contract (destroying the heap while threads allocate
  // is already undefined); surviving caches — including other threads'
  // — drain to the shared lists so the on-media free lists are exact.
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (auto& cache : caches_) RetireCacheLocked(cache.get());
  caches_.clear();
  // Stale TLS bindings in other threads stay behind; they are keyed by
  // instance id and will never match a future allocator.
}

void Allocator::set_magazines_enabled(bool enabled) {
  magazines_enabled_ = enabled;
}

void Allocator::set_magazine_capacity(std::uint32_t capacity) {
  magazine_capacity_ = std::clamp<std::uint32_t>(
      capacity, 2, static_cast<std::uint32_t>(kMagazineCapacity));
}

std::size_t Allocator::BlockSizeForPayload(std::size_t payload_size) {
  const std::size_t needed = payload_size + sizeof(BlockHeader);
  if (TSP_PREDICT_TRUE(needed <= kSmallLookupLimit)) {
    return kClassBlockSizes[kSmallClassByGranule[(needed + kGranule - 1) /
                                                 kGranule]];
  }
  for (std::size_t block_size : kClassBlockSizes) {
    if (block_size >= needed) return block_size;
  }
  return 0;
}

int Allocator::SizeClassOf(std::size_t block_size) {
  if (TSP_PREDICT_TRUE(block_size <= kSmallLookupLimit)) {
    // Exact-match semantics preserved: a size that is not a real class
    // size (e.g. a scribbled header) still classifies as -1.
    const int size_class =
        kSmallClassByGranule[(block_size + kGranule - 1) / kGranule];
    return kClassBlockSizes[size_class] == block_size ? size_class : -1;
  }
  // Binary search over the sorted class table.
  int lo = 0, hi = kNumSizeClasses - 1;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    if (kClassBlockSizes[mid] == block_size) return mid;
    if (kClassBlockSizes[mid] < block_size) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  return -1;
}

std::size_t Allocator::ClassBlockSize(int index) {
  TSP_DCHECK_GE(index, 0);
  TSP_DCHECK_LT(static_cast<std::size_t>(index), kNumSizeClasses);
  return kClassBlockSizes[index];
}

void* Allocator::Alloc(std::size_t payload_size, std::uint32_t type_id) {
  const std::size_t block_size = BlockSizeForPayload(payload_size);
  if (block_size == 0) return nullptr;
  const int size_class = SizeClassOf(block_size);
  TSP_DCHECK_GE(size_class, 0);

  void* payload = nullptr;
  if (magazines_enabled_ && size_class < kNumMagazineClasses) {
    ThreadCache* cache = GetCache();
    if (cache != nullptr) {
      payload = cache->Alloc(size_class, block_size, type_id);
    } else {
      payload = AllocShared(size_class, block_size, type_id, /*owner_tag=*/0);
    }
  } else {
    payload = AllocShared(size_class, block_size, type_id, /*owner_tag=*/0);
  }
  // TSPRace: a recycled block must not inherit lockset history from its
  // previous tenant — reset its shadow cells to virgin.
  analysis::HookAlloc(payload, block_size - sizeof(BlockHeader));
  return payload;
}

void* Allocator::AllocShared(int size_class, std::size_t block_size,
                             std::uint32_t type_id, std::uint16_t owner_tag) {
  std::uint64_t offset = PopFromList(size_class);
  if (offset == 0) {
    // Bump allocation. A crash between fetch_add and header
    // initialization leaks the reserved bytes; the recovery GC reclaims
    // them because nothing reachable covers the gap.
    const std::uint64_t arena_end =
        header_->arena_offset + header_->arena_size;
    offset = header_->bump_offset.fetch_add(block_size,
                                            std::memory_order_relaxed);
    if (offset + block_size > arena_end) {
      // Exhausted. Give the (unusable, partially out-of-range) reserved
      // bytes back by capping the published bump at arena_end so stats
      // stay sane; concurrent racers may also have overshot, which is
      // benign — the arena is simply full.
      return nullptr;
    }
  }

  auto* block = static_cast<BlockHeader*>(region_->FromOffset(offset));
  // Allocator metadata writes are blessed under TSPSan: headers are
  // advisory (recovery rebuilds them) and never undo-logged.
  ScopedWriteWindow window(block, sizeof(BlockHeader));
  block->magic = BlockHeader::kAllocatedMagic;
  block->type_id = type_id;
  block->block_size = BlockHeader::PackSize(block_size, owner_tag);
  header_->total_allocs.fetch_add(1, std::memory_order_relaxed);
  return block + 1;
}

void Allocator::Free(void* payload) {
  TSP_CHECK(payload != nullptr);
  TSP_CHECK(region_->Contains(payload));
  BlockHeader* block = HeaderOf(payload);
  TSP_CHECK_EQ(block->magic, BlockHeader::kAllocatedMagic)
      << "Free of unallocated or corrupt block";
  const std::uint64_t block_size = block->size();
  const int size_class = SizeClassOf(block_size);
  TSP_CHECK_GE(size_class, 0) << "corrupt block size";
  const std::uint16_t owner_tag = block->owner_tag();
  {
    ScopedWriteWindow window(block, sizeof(BlockHeader));
    block->magic = BlockHeader::kFreeMagic;
    // Free blocks carry the pure size (owner tags are meaningless once
    // nothing is allocated; validators compare the raw word).
    block->block_size = block_size;
  }
  const std::uint64_t offset = region_->ToOffset(block);

  if (magazines_enabled_ && size_class < kNumMagazineClasses) {
    ThreadCache* cache = GetCache();
    if (cache != nullptr) {
      cache->Free(size_class, offset, owner_tag);
      return;
    }
  }
  SharedFree(size_class, offset);
}

void Allocator::SharedFree(int size_class, std::uint64_t block_offset) {
  header_->total_frees.fetch_add(1, std::memory_order_relaxed);
  PushToList(size_class, block_offset);
}

bool Allocator::RemoteFreeTo(std::uint32_t slot, std::uint64_t block_offset) {
  TSP_DCHECK_LT(slot, kMaxThreadCaches);
  RemoteSlot& remote = remote_slots_[slot];
  if (remote.claimed.load(std::memory_order_acquire) == 0) return false;
  auto* payload = static_cast<FreeBlockPayload*>(
      region_->FromOffset(block_offset + sizeof(BlockHeader)));
  ScopedWriteWindow window(payload, sizeof(FreeBlockPayload));
  TaggedOffset old_head = remote.head.load(std::memory_order_acquire);
  for (;;) {
    payload->next_offset = OffsetOf(old_head);
    const TaggedOffset new_head =
        MakeTagged(TagOf(old_head) + 1, block_offset);
    if (remote.head.compare_exchange_weak(old_head, new_head,
                                          std::memory_order_release,
                                          std::memory_order_acquire)) {
      return true;
    }
  }
}

void Allocator::PushToList(int size_class, std::uint64_t block_offset) {
  auto* payload = static_cast<FreeBlockPayload*>(
      region_->FromOffset(block_offset + sizeof(BlockHeader)));
  ScopedWriteWindow window(payload, sizeof(FreeBlockPayload));
  std::atomic<TaggedOffset>& head = header_->free_list_head(size_class);
  TaggedOffset old_head = head.load(std::memory_order_acquire);
  for (;;) {
    payload->next_offset = OffsetOf(old_head);
    const TaggedOffset new_head =
        MakeTagged(TagOf(old_head) + 1, block_offset);
    if (head.compare_exchange_weak(old_head, new_head,
                                   std::memory_order_release,
                                   std::memory_order_acquire)) {
      return;
    }
  }
}

void Allocator::PushChainToList(int size_class, std::uint64_t first_offset,
                                std::uint64_t last_offset,
                                std::uint64_t count) {
  TSP_DCHECK_GT(count, 0u);
  (void)count;  // only used for the debug check and the call-site docs
  auto* last_payload = static_cast<FreeBlockPayload*>(
      region_->FromOffset(last_offset + sizeof(BlockHeader)));
  std::atomic<TaggedOffset>& head = header_->free_list_head(size_class);
  TaggedOffset old_head = head.load(std::memory_order_acquire);
  for (;;) {
    {
      ScopedWriteWindow window(last_payload, sizeof(FreeBlockPayload));
      last_payload->next_offset = OffsetOf(old_head);
    }
    const TaggedOffset new_head =
        MakeTagged(TagOf(old_head) + 1, first_offset);
    if (head.compare_exchange_weak(old_head, new_head,
                                   std::memory_order_release,
                                   std::memory_order_acquire)) {
      return;
    }
  }
}

std::uint64_t Allocator::PopFromList(int size_class) {
  std::atomic<TaggedOffset>& head = header_->free_list_head(size_class);
  TaggedOffset old_head = head.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t offset = OffsetOf(old_head);
    if (offset == 0) return 0;
    const auto* payload = static_cast<const FreeBlockPayload*>(
        region_->FromOffset(offset + sizeof(BlockHeader)));
    const std::uint64_t next = payload->next_offset;
    const TaggedOffset new_head = MakeTagged(TagOf(old_head) + 1, next);
    if (head.compare_exchange_weak(old_head, new_head,
                                   std::memory_order_acquire,
                                   std::memory_order_acquire)) {
      return offset;
    }
  }
}

std::size_t Allocator::BatchPopFromList(int size_class, std::size_t want,
                                        std::uint64_t* out) {
  std::atomic<TaggedOffset>& head = header_->free_list_head(size_class);
  const std::uint64_t arena_start = header_->arena_offset;
  const std::uint64_t arena_end = arena_start + header_->arena_size;
  const std::size_t block_size = ClassBlockSize(size_class);
  std::uint64_t retries = 0;
  TaggedOffset old_head = head.load(std::memory_order_acquire);
  std::size_t taken = 0;
  for (;;) {
    std::uint64_t cur = OffsetOf(old_head);
    if (cur == 0) break;  // list empty
    // Walk up to `want` links. Concurrently popped-and-reused nodes can
    // expose garbage next links (classic Treiber ABA); the bounds check
    // keeps the walk from ever dereferencing outside the arena, and the
    // tag CAS below only succeeds if the head — and therefore the whole
    // chain we read — was untouched for the entire walk.
    std::size_t n = 0;
    bool torn = false;
    while (cur != 0 && n < want) {
      if (cur < arena_start || cur + block_size > arena_end ||
          cur % kGranule != 0) {
        torn = true;
        break;
      }
      out[n++] = cur;
      cur = static_cast<const FreeBlockPayload*>(
                region_->FromOffset(cur + sizeof(BlockHeader)))
                ->next_offset;
    }
    if (torn) {
      ++retries;
      old_head = head.load(std::memory_order_acquire);
      continue;
    }
    const TaggedOffset new_head = MakeTagged(TagOf(old_head) + 1, cur);
    if (head.compare_exchange_weak(old_head, new_head,
                                   std::memory_order_acquire,
                                   std::memory_order_acquire)) {
      // Magazines pop from the back of `out`; reversing keeps the list
      // head (the most recently freed, hottest block) popping first.
      std::reverse(out, out + n);
      taken = n;
      break;
    }
    ++retries;
  }
  if (retries > 0) {
    if (ThreadCache* cache = GetCache(); cache != nullptr) {
      Bump(cache->batch_pop_retries_, retries);
    }
  }
  return taken;
}

std::size_t Allocator::BatchCarve(std::size_t block_size, std::size_t want,
                                  std::uint64_t* out) {
  TSP_DCHECK_GT(want, 0u);
  const std::uint64_t arena_end = header_->arena_offset + header_->arena_size;
  const std::uint64_t offset = header_->bump_offset.fetch_add(
      block_size * want, std::memory_order_relaxed);
  if (offset >= arena_end) return 0;
  // Near exhaustion the tail of the reservation may stick out past the
  // arena; use the prefix that fits. Like the single-block overshoot,
  // any unusable remainder is simply leaked until the next recovery GC.
  const std::size_t usable = std::min<std::uint64_t>(
      want, (arena_end - offset) / block_size);
  if (usable == 0) return 0;
  // One blessed write window covers the whole carved range: freshly
  // reserved bytes are unreachable, so nothing here can need rollback.
  ScopedWriteWindow window(region_->FromOffset(offset), usable * block_size);
  for (std::size_t i = 0; i < usable; ++i) {
    const std::uint64_t block_offset = offset + i * block_size;
    auto* block =
        static_cast<BlockHeader*>(region_->FromOffset(block_offset));
    block->magic = BlockHeader::kFreeMagic;
    block->type_id = 0;
    block->block_size = block_size;
    // Descending order: magazines pop from the back of `out`, so the
    // carved range is handed out in ascending address order (exactly
    // like repeated single-block bumping).
    out[usable - 1 - i] = block_offset;
  }
  return usable;
}

ThreadCache* Allocator::GetCache() {
  // Fast path: one TLS load and one compare (no init-guard; see
  // FastBinding). The id match implies a live cache for this allocator
  // bound by this thread below.
  if (TSP_PREDICT_TRUE(tls_fast_binding.instance_id == instance_id_)) {
    return tls_fast_binding.cache;
  }
  auto& bindings = tls_caches.bindings;
  for (std::size_t i = 0; i < bindings.size(); ++i) {
    if (bindings[i].instance_id == instance_id_) {
      // Move-to-front: the common case (one hot allocator per thread)
      // resolves with a single compare even when many heaps were
      // touched over the thread's lifetime.
      if (i != 0) std::swap(bindings[0], bindings[i]);
      if (bindings[0].cache != nullptr) {
        tls_fast_binding = {instance_id_, bindings[0].cache};
      }
      return bindings[0].cache;
    }
  }
  ThreadCache* cache = RegisterThreadCache();
  // A nullptr binding (slots exhausted) is remembered too, so the
  // thread does not retry registration on every operation.
  bindings.insert(bindings.begin(), {instance_id_, cache});
  if (cache != nullptr) tls_fast_binding = {instance_id_, cache};
  return cache;
}

ThreadCache* Allocator::RegisterThreadCache() {
  // Prune bindings of dead allocators while we are off the fast path;
  // long-lived threads in heap-churning tests would otherwise scan an
  // ever-growing list.
  {
    LiveRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    auto& bindings = tls_caches.bindings;
    bindings.erase(
        std::remove_if(bindings.begin(), bindings.end(),
                       [&](const TlsCaches::Binding& b) {
                         return FindLiveLocked(registry, b.instance_id) ==
                                nullptr;
                       }),
        bindings.end());
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  for (std::uint32_t slot = 0; slot < kMaxThreadCaches; ++slot) {
    if (remote_slots_[slot].claimed.load(std::memory_order_relaxed) != 0) {
      continue;
    }
    remote_slots_[slot].claimed.store(1, std::memory_order_release);
    // Blocks stranded by a retire/remote-free race belong to the new
    // claimant's class magazines via the normal reclaim path; nothing
    // from the previous owner may linger as inbox state.
    DrainRemoteSlot(slot);
    auto cache = std::make_unique<ThreadCache>(this, slot);
    if (recorder_ != nullptr) cache->trace_ = recorder_->writer();
    ThreadCache* raw = cache.get();
    caches_.push_back(std::move(cache));
    return raw;
  }
  return nullptr;  // more live threads than inbox slots: shared path
}

void Allocator::RetireCache(ThreadCache* cache) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  RetireCacheLocked(cache);
  for (auto it = caches_.begin(); it != caches_.end(); ++it) {
    if (it->get() == cache) {
      caches_.erase(it);
      break;
    }
  }
}

void Allocator::RetireCacheLocked(ThreadCache* cache) {
  // Stop remote frees targeting this inbox before draining it (a racer
  // that already loaded claimed=1 may still strand blocks; the next
  // claimant's DrainRemoteSlot reclaims them).
  remote_slots_[cache->slot_].claimed.store(0, std::memory_order_release);
  cache->DrainAll();
  // Persistent counters absorb the cache's deltas; volatile breakdowns
  // accumulate in retired_stats_ so GetStats keeps reporting them.
  const std::uint64_t allocs =
      cache->magazine_allocs_.load(std::memory_order_relaxed);
  const std::uint64_t frees =
      cache->magazine_frees_.load(std::memory_order_relaxed) +
      cache->remote_frees_.load(std::memory_order_relaxed);
  if (allocs > 0) {
    header_->total_allocs.fetch_add(allocs, std::memory_order_relaxed);
  }
  if (frees > 0) {
    header_->total_frees.fetch_add(frees, std::memory_order_relaxed);
  }
  retired_stats_.magazine_allocs +=
      cache->magazine_allocs_.load(std::memory_order_relaxed);
  retired_stats_.magazine_frees +=
      cache->magazine_frees_.load(std::memory_order_relaxed);
  retired_stats_.refill_batches +=
      cache->refill_batches_.load(std::memory_order_relaxed);
  retired_stats_.carve_batches +=
      cache->carve_batches_.load(std::memory_order_relaxed);
  retired_stats_.drain_batches +=
      cache->drain_batches_.load(std::memory_order_relaxed);
  retired_stats_.remote_frees +=
      cache->remote_frees_.load(std::memory_order_relaxed);
  retired_stats_.remote_reclaims +=
      cache->remote_reclaims_.load(std::memory_order_relaxed);
  retired_stats_.magazine_discards +=
      cache->discards_.load(std::memory_order_relaxed);
  retired_stats_.batch_pop_retries +=
      cache->batch_pop_retries_.load(std::memory_order_relaxed);
}

void Allocator::DrainRemoteSlot(std::uint32_t slot) {
  RemoteSlot& remote = remote_slots_[slot];
  TaggedOffset head = remote.head.load(std::memory_order_relaxed);
  if (OffsetOf(head) == 0) return;
  head = remote.head.exchange(MakeTagged(TagOf(head) + 1, 0),
                              std::memory_order_acquire);
  std::uint64_t cur = OffsetOf(head);
  while (cur != 0) {
    const auto* payload = static_cast<const FreeBlockPayload*>(
        region_->FromOffset(cur + sizeof(BlockHeader)));
    const std::uint64_t next = payload->next_offset;
    const auto* block =
        static_cast<const BlockHeader*>(region_->FromOffset(cur));
    const int size_class = SizeClassOf(block->size());
    TSP_CHECK_GE(size_class, 0) << "corrupt block in remote-free inbox";
    PushToList(size_class, cur);
    cur = next;
  }
}

void Allocator::FlushCurrentThreadCache() {
  if (tls_fast_binding.instance_id == instance_id_) {
    tls_fast_binding = {0, nullptr};  // the cache dies below
  }
  auto& bindings = tls_caches.bindings;
  for (auto it = bindings.begin(); it != bindings.end(); ++it) {
    if (it->instance_id != instance_id_) continue;
    ThreadCache* cache = it->cache;
    bindings.erase(it);
    if (cache != nullptr) RetireCache(cache);
    return;
  }
}

AllocatorStats Allocator::GetStats() const {
  AllocatorStats stats;
  stats.total_allocs = header_->total_allocs.load(std::memory_order_relaxed);
  stats.total_frees = header_->total_frees.load(std::memory_order_relaxed);
  stats.bump_offset = header_->bump_offset.load(std::memory_order_relaxed);
  stats.arena_end = header_->arena_offset + header_->arena_size;

  std::lock_guard<std::mutex> lock(cache_mutex_);
  // The header counters hold the shared-path operations plus the folded
  // deltas of retired caches; the difference is the pure shared count.
  stats.magazine_allocs = retired_stats_.magazine_allocs;
  stats.magazine_frees = retired_stats_.magazine_frees;
  stats.refill_batches = retired_stats_.refill_batches;
  stats.carve_batches = retired_stats_.carve_batches;
  stats.drain_batches = retired_stats_.drain_batches;
  stats.remote_frees = retired_stats_.remote_frees;
  stats.remote_reclaims = retired_stats_.remote_reclaims;
  stats.magazine_discards = retired_stats_.magazine_discards;
  stats.batch_pop_retries = retired_stats_.batch_pop_retries;
  stats.shared_allocs =
      stats.total_allocs - retired_stats_.magazine_allocs;
  stats.shared_frees = stats.total_frees -
                       (retired_stats_.magazine_frees +
                        retired_stats_.remote_frees);
  for (const auto& cache : caches_) {
    const std::uint64_t allocs =
        cache->magazine_allocs_.load(std::memory_order_relaxed);
    const std::uint64_t magazine_frees =
        cache->magazine_frees_.load(std::memory_order_relaxed);
    const std::uint64_t remote_frees =
        cache->remote_frees_.load(std::memory_order_relaxed);
    stats.total_allocs += allocs;
    stats.total_frees += magazine_frees + remote_frees;
    stats.magazine_allocs += allocs;
    stats.magazine_frees += magazine_frees;
    stats.remote_frees += remote_frees;
    stats.refill_batches +=
        cache->refill_batches_.load(std::memory_order_relaxed);
    stats.carve_batches +=
        cache->carve_batches_.load(std::memory_order_relaxed);
    stats.drain_batches +=
        cache->drain_batches_.load(std::memory_order_relaxed);
    stats.remote_reclaims +=
        cache->remote_reclaims_.load(std::memory_order_relaxed);
    stats.magazine_discards +=
        cache->discards_.load(std::memory_order_relaxed);
    stats.batch_pop_retries +=
        cache->batch_pop_retries_.load(std::memory_order_relaxed);
  }
  return stats;
}

std::vector<Allocator::FreeListLength> Allocator::FreeListLengths() const {
  std::vector<FreeListLength> lengths(kNumSizeClasses);
  const std::uint64_t arena_start = header_->arena_offset;
  const std::uint64_t bump =
      header_->bump_offset.load(std::memory_order_relaxed);
  // Defensive cycle bound, as in CheckHeap: a quiesced heap cannot have
  // more blocks than minimum-sized ones below the bump pointer.
  const std::uint64_t max_blocks =
      bump > arena_start ? (bump - arena_start) / (2 * kGranule) + 1 : 1;
  for (std::size_t c = 0; c < kNumSizeClasses; ++c) {
    lengths[c].block_size = ClassBlockSize(static_cast<int>(c));
    std::uint64_t offset = OffsetOf(
        header_->free_list_head(c).load(std::memory_order_acquire));
    std::uint64_t walked = 0;
    while (offset != 0 && walked <= max_blocks) {
      ++walked;
      offset = static_cast<const FreeBlockPayload*>(
                   region_->FromOffset(offset + sizeof(BlockHeader)))
                   ->next_offset;
    }
    lengths[c].blocks = walked;
  }
  return lengths;
}

void Allocator::ResetMetadata(std::uint64_t bump_offset,
                              std::uint64_t live_objects) {
  TSP_CHECK_GE(bump_offset, header_->arena_offset);
  TSP_CHECK_LE(bump_offset, header_->arena_offset + header_->arena_size);
  for (std::size_t c = 0; c < kMaxSizeClasses; ++c) {
    header_->free_lists[c].head.store(0, std::memory_order_relaxed);
  }
  header_->bump_offset.store(bump_offset, std::memory_order_relaxed);
  header_->total_allocs.store(live_objects, std::memory_order_relaxed);
  header_->total_frees.store(0, std::memory_order_relaxed);
  // Remote-free inboxes hold offsets from the discarded metadata world;
  // forget them (the GC owns every non-live byte now). Slot claims are
  // kept — the registered caches stay valid, they just start empty.
  for (std::size_t slot = 0; slot < kMaxThreadCaches; ++slot) {
    remote_slots_[slot].head.store(0, std::memory_order_relaxed);
  }
  // Invalidate every magazine: each cache notices the new epoch on its
  // next operation and discards (never drains) its parked offsets.
  cache_epoch_.fetch_add(1, std::memory_order_relaxed);
}

void Allocator::PushFreeBlock(std::uint64_t offset, std::size_t block_size) {
  const int size_class = SizeClassOf(block_size);
  TSP_CHECK_GE(size_class, 0);
  auto* block = static_cast<BlockHeader*>(region_->FromOffset(offset));
  ScopedWriteWindow window(block, sizeof(BlockHeader));
  block->magic = BlockHeader::kFreeMagic;
  block->type_id = 0;
  block->block_size = block_size;
  PushToList(size_class, offset);
}

}  // namespace tsp::pheap
