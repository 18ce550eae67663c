// Copyright 2026 The TSP Authors.
// Harris–Michael lock-free hash map over the persistent heap (paper
// §4.1, second non-blocking variant next to the skip list).
//
// Fixed power-of-two bucket array; each bucket is a sorted Harris-
// Michael linked list (Michael, SPAA'02: marked next-pointers, helping
// unlink during find). The crash-consistency story is identical to the
// skip list's publish-before-link argument:
//   * a node is fully initialized (key, value, next) before the single
//     bucket/next CAS makes it reachable, so recovery — which observes
//     a strict prefix of issued stores — sees either no node or a
//     complete node;
//   * deletion marks node->next first (logical delete, the
//     linearization point), then unlinks; every intermediate state is a
//     valid list;
//   * no logging, no flushing; crash recovery is the mark-sweep GC
//     collecting unpublished/unlinked nodes.
//
// O(1) expected operations vs the skip list's O(log n) — under TSP both
// are zero-persistence-overhead, so this is the throughput headline.
// Keys and values are uint64_t; values are updated atomically in place.

#ifndef TSP_LOCKFREE_HASHMAP_H_
#define TSP_LOCKFREE_HASHMAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>

#include "lockfree/epoch.h"
#include "pheap/heap.h"
#include "pheap/type_registry.h"

namespace tsp::lockfree {

/// Persistent bucket-list node. The LSB of `next` is the deletion mark.
struct HashNode {
  static constexpr std::uint32_t kPersistentTypeId = 0x4C46484E;  // "LFHN"

  std::uint64_t key;
  std::atomic<std::uint64_t> value;
  std::atomic<std::uint64_t> next;  // marked pointer
};

/// Persistent root: header plus the inline bucket array of list heads
/// (plain pointers; marks live on node->next only). The header is
/// written once, by CreateRoot, and only read afterwards: no operation
/// writes a word outside the bucket array and the nodes.
struct LockFreeHashRoot {
  static constexpr std::uint32_t kPersistentTypeId = 0x4C464852;  // "LFHR"

  std::uint64_t bucket_count;  // power of two
  /// Zero in roots made by CreateRoot; never read. Heaps written while
  /// this word held an element counter may carry any value here. It
  /// keeps `buckets` at offset 16, so those heaps still open.
  std::uint64_t reserved;
  std::atomic<std::uint64_t> buckets[1];  // [bucket_count] entries

  static std::size_t AllocationSize(std::uint64_t bucket_count) {
    return offsetof(LockFreeHashRoot, buckets) +
           static_cast<std::size_t>(bucket_count) *
               sizeof(std::atomic<std::uint64_t>);
  }
};

/// The map facade. Volatile; attach one per process to a persistent
/// LockFreeHashRoot. All operations are lock-free (Get is wait-free
/// for a bounded bucket). The facade caches the bucket array and mask,
/// so an operation touches the root only at its bucket word, and the
/// only shared words it writes are its linking or marking CAS targets.
/// Worker threads must call epoch()->UnregisterCurrentThread() before
/// exiting.
class LockFreeHashMap {
 public:
  /// Allocates a root with `bucket_count` (rounded up to a power of
  /// two) empty buckets. Returns nullptr if the heap is out of memory.
  static LockFreeHashRoot* CreateRoot(pheap::PersistentHeap* heap,
                                      std::uint64_t bucket_count);

  /// Registers HashNode/LockFreeHashRoot trace functions for the
  /// recovery GC.
  static void RegisterTypes(pheap::TypeRegistry* registry);

  /// Attaches to an existing root. Pass `shared_epoch` to share a
  /// reclamation domain with other structures in the same heap.
  LockFreeHashMap(pheap::PersistentHeap* heap, LockFreeHashRoot* root,
                  EpochManager* shared_epoch = nullptr);

  LockFreeHashMap(const LockFreeHashMap&) = delete;
  LockFreeHashMap& operator=(const LockFreeHashMap&) = delete;

  /// Inserts key→value; returns false (no change) if the key exists.
  bool Insert(std::uint64_t key, std::uint64_t value);

  /// Upsert: inserts, or atomically overwrites the existing value.
  /// Returns true if a new node was inserted.
  bool Put(std::uint64_t key, std::uint64_t value);

  /// Reads the current value.
  std::optional<std::uint64_t> Get(std::uint64_t key) const;

  /// Atomically adds `delta`, inserting the key with value `delta` if
  /// absent. Returns the post-increment value.
  std::uint64_t IncrementBy(std::uint64_t key, std::uint64_t delta);

  /// Logically deletes and unlinks the key. Returns false if absent.
  bool Remove(std::uint64_t key);

  bool Contains(std::uint64_t key) const { return Get(key).has_value(); }

  /// Visits (key, value) in unspecified order, skipping logically
  /// deleted nodes. Safe concurrently (no snapshot semantics).
  template <typename F>
  void ForEach(F&& fn) const {
    EpochManager::Guard guard(epoch_);
    for (std::uint64_t b = 0; b <= mask_; ++b) {
      const HashNode* node =
          Deref(buckets_[b].load(std::memory_order_acquire));
      while (node != nullptr) {
        const std::uint64_t next =
            node->next.load(std::memory_order_acquire);
        if (!IsMarked(next)) {
          fn(node->key, node->value.load(std::memory_order_acquire));
        }
        node = Deref(next);
      }
    }
  }

  /// Structural check (quiescent callers): every bucket sorted strictly
  /// ascending, every key hashed to its bucket, no marks when
  /// `expect_no_marks`. Fatal on violation. Returns node count.
  std::uint64_t Validate(bool expect_no_marks = false) const;

  EpochManager* epoch() { return epoch_; }

 private:
  /// Cursor into a bucket list: *prev holds MakeWord(curr, false).
  struct Cursor {
    std::atomic<std::uint64_t>* prev;
    HashNode* curr;  // first unmarked node with key >= target, or null
  };

  static bool IsMarked(std::uint64_t word) { return (word & 1) != 0; }
  static HashNode* Deref(std::uint64_t word) {
    return reinterpret_cast<HashNode*>(word & ~std::uint64_t{1});
  }
  static std::uint64_t MakeWord(const HashNode* node, bool marked) {
    return reinterpret_cast<std::uint64_t>(node) |
           (marked ? std::uint64_t{1} : 0);
  }

  std::atomic<std::uint64_t>* BucketHead(std::uint64_t key) const;

  /// Michael's find: positions a cursor at the first node with
  /// key >= `key`, physically unlinking (and retiring) marked nodes on
  /// the way. Returns true if cursor.curr holds `key`. Caller must hold
  /// an epoch guard.
  bool FindInBucket(std::atomic<std::uint64_t>* head, std::uint64_t key,
                    Cursor* cursor);

  /// Wait-free search (no helping): the unmarked node holding `key`, or
  /// nullptr. Caller must hold an epoch guard.
  HashNode* SearchNode(std::uint64_t key) const;

  HashNode* AllocNode(std::uint64_t key, std::uint64_t value);

  pheap::PersistentHeap* heap_;
  std::unique_ptr<EpochManager> owned_epoch_;  // null when sharing
  EpochManager* epoch_;
  std::atomic<std::uint64_t>* buckets_;  // the root's bucket array
  std::uint64_t mask_;                   // the root's bucket_count - 1
};

}  // namespace tsp::lockfree

#endif  // TSP_LOCKFREE_HASHMAP_H_
