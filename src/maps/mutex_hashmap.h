// Copyright 2026 The TSP Authors.
// Mutex-based persistent hash map (paper §5.1): "a separate-chaining
// hash table and moderate-grain locking (one mutex per 1000 buckets)".
//
// The same code runs in three modes, selected by the AtlasRuntime it is
// attached to (or its absence):
//   * no runtime            → native, non-resilient ("no Atlas"),
//   * runtime w/ TspLogOnly → undo logging only (TSP mode),
//   * runtime w/ SyncFlush  → logging + synchronous flush (non-TSP).

#ifndef TSP_MAPS_MUTEX_HASHMAP_H_
#define TSP_MAPS_MUTEX_HASHMAP_H_

#include <memory>
#include <vector>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "common/reciprocal.h"
#include "common/status.h"
#include "maps/map_interface.h"
#include "pheap/heap.h"
#include "pheap/type_registry.h"

namespace tsp::maps {

/// Persistent chain entry.
struct HashEntry {
  static constexpr std::uint32_t kPersistentTypeId = 0x48454E54;  // "HENT"
  std::uint64_t key;
  std::uint64_t value;
  HashEntry* next;
};

/// Persistent bucket array: a counted array of chain heads.
struct BucketArray {
  static constexpr std::uint32_t kPersistentTypeId = 0x424B4152;  // "BKAR"
  std::uint64_t bucket_count;
  HashEntry* buckets[1];  // [bucket_count] entries

  static std::size_t AllocationSize(std::uint64_t bucket_count) {
    return sizeof(std::uint64_t) + bucket_count * sizeof(HashEntry*);
  }
};

/// Persistent root of a hash map.
struct HashMapRoot {
  static constexpr std::uint32_t kPersistentTypeId = 0x484D5254;  // "HMRT"
  BucketArray* buckets;
};

/// Volatile facade; one per process per persistent map. Thread-safe.
class MutexHashMap final : public Map {
 public:
  struct Options {
    /// Number of hash buckets (fixed at creation), rounded up to a power
    /// of two so a bucket index is a mask.
    std::uint64_t bucket_count = 1 << 16;
    /// The paper's lock granularity: one mutex per this many buckets.
    std::uint64_t buckets_per_lock = 1000;
  };

  /// The most buckets a map holds: the stripe reciprocal is exact only
  /// for 32-bit bucket indices.
  static constexpr std::uint64_t kMaxBuckets = std::uint64_t{1} << 32;

  /// Allocates the persistent root + bucket array with
  /// options.bucket_count rounded up to a power of two (at most
  /// kMaxBuckets). Returns nullptr when the heap is exhausted.
  static HashMapRoot* CreateRoot(pheap::PersistentHeap* heap,
                                 const Options& options);

  /// Why `root` cannot be served: its stored bucket count is not a
  /// power of two of at most kMaxBuckets (kCorruption). OK otherwise.
  static Status CheckRoot(const HashMapRoot* root);

  /// Registers trace functions for the recovery GC.
  static void RegisterTypes(pheap::TypeRegistry* registry);

  /// Attaches to an existing root, which must pass CheckRoot. `runtime`
  /// may be null (native mode); when set, every critical section becomes
  /// an Atlas OCS and every store is undo-logged per the runtime's
  /// policy.
  MutexHashMap(pheap::PersistentHeap* heap, HashMapRoot* root,
               atlas::AtlasRuntime* runtime, const Options& options);

  void Put(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> Get(std::uint64_t key) const override;
  std::uint64_t IncrementBy(std::uint64_t key, std::uint64_t delta) override;
  bool Remove(std::uint64_t key) override;
  void ForEach(const std::function<void(std::uint64_t, std::uint64_t)>& fn)
      const override;
  const char* name() const override;
  void OnThreadExit() override;

  std::uint64_t bucket_count() const { return bucket_count_; }
  std::size_t lock_count() const { return locks_.size(); }
  /// True when every lock stripe is bound to an Atlas robust word, so
  /// the locks exclude other processes attached to the same map; false
  /// without a runtime or with more stripes than robust words.
  bool cross_process_locks() const { return cross_process_locks_; }

 private:
  static std::uint64_t Hash(std::uint64_t key);

  /// The bucket of `key`, with a prefetch of its chain-head slot issued
  /// at once: the slot's miss (a random line of the bucket array) then
  /// overlaps the acquire path (BeginOcs, the mutex, OnAcquire) instead
  /// of following it. The stripe's lock line is not prefetched; see
  /// DESIGN.md §5.
  std::uint64_t BucketOf(std::uint64_t key) const {
    const std::uint64_t bucket = Hash(key) & (bucket_count_ - 1);
    __builtin_prefetch(&buckets_[bucket]);
    return bucket;
  }
  atlas::PMutex* LockFor(std::uint64_t bucket) const {
    return locks_[stripe_of_.Divide(bucket)].get();
  }

  template <typename T>
  static void StoreField(atlas::AtlasThread* thread, T* addr, T value) {
    if (thread != nullptr) {
      thread->Store(addr, value);
    } else {
      *addr = value;
    }
  }

  pheap::PersistentHeap* heap_;
  /// The chain heads, cached at construction: the root's bucket array
  /// never changes, so no operation loads the root.
  HashEntry** buckets_;
  atlas::AtlasRuntime* runtime_;
  std::uint64_t bucket_count_;
  std::uint64_t buckets_per_lock_;
  /// Divides a bucket index by buckets_per_lock_: its lock stripe.
  Reciprocal stripe_of_;
  std::vector<std::unique_ptr<atlas::PMutex>> locks_;
  bool cross_process_locks_ = false;
};

}  // namespace tsp::maps

#endif  // TSP_MAPS_MUTEX_HASHMAP_H_
