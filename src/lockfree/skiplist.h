// Copyright 2026 The TSP Authors.
// Lock-free skip list map over the persistent heap (paper §4.1 /
// Herlihy & Shavit ch. 14; the role played by Dybnis's nbds skip list in
// the paper's experiments).
//
// Non-blocking + TSP = crash resilience with zero runtime overhead:
//   * nodes are fully initialized before being published with a CAS, so
//     the recovery observer — which sees a strict prefix of the issued
//     stores — always finds a structurally consistent list;
//   * deletion first marks next-pointers (logical delete), then unlinks;
//     a crash at any point leaves a valid list;
//   * no logging, no flushing, no recovery rollback. Recovery is just
//     the mark-sweep GC reclaiming unpublished/unlinked nodes.
//
// Keys and values are uint64_t; values are updated atomically in place.

#ifndef TSP_LOCKFREE_SKIPLIST_H_
#define TSP_LOCKFREE_SKIPLIST_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "lockfree/epoch.h"
#include "pheap/heap.h"
#include "pheap/type_registry.h"

namespace tsp::lockfree {

/// Persistent skip list node. Variable height: next[] has `height`
/// elements. The LSB of a next pointer is the deletion mark.
struct SkipNode {
  static constexpr std::uint32_t kPersistentTypeId = 0x534B4E44;  // "SKND"
  static constexpr int kMaxHeight = 20;

  /// Reclamation handshake between the inserting thread (which may still
  /// be linking upper levels) and the thread that logically deletes the
  /// node. Exactly one side ends up responsible for the final cleanup
  /// walk + Retire, and only after no further tower links can appear.
  /// Volatile semantics only — crashes leave any state, and recovery GC
  /// ignores it.
  enum LinkState : std::uint32_t {
    kLinking = 0,    // inserter still building the tower
    kLinked = 1,     // tower complete; remover may retire
    kAbandoned = 2,  // removed mid-insert; inserter must retire
    kRetired = 3,    // handed to the epoch manager
  };

  std::uint64_t key;
  std::atomic<std::uint64_t> value;
  std::int32_t height;
  std::uint32_t is_head;  // 1 for the -inf sentinel
  std::atomic<std::uint32_t> link_state;
  std::uint32_t reserved;
  std::atomic<std::uint64_t> next[1];  // marked pointers; [height] entries

  static std::size_t AllocationSize(int height) {
    return offsetof(SkipNode, next) +
           static_cast<std::size_t>(height) * sizeof(std::atomic<std::uint64_t>);
  }
};

/// Persistent root object for a skip list map. Written once, by
/// CreateRoot; operations only read it. Roots written while it carried
/// a trailing element counter open unchanged (`head` comes first).
struct SkipListRoot {
  static constexpr std::uint32_t kPersistentTypeId = 0x534B4C52;  // "SKLR"
  SkipNode* head;  // full-height -inf sentinel
};

/// Persistent root for a key-range sharded skip list: K independent
/// towers in ONE heap, routed by splitmix64 (maps::ShardedMap). Splits
/// the hottest CAS targets (head tower, low levels) K ways while
/// keeping one heap, one recovery pass, and one epoch domain.
struct ShardedSkipListRoot {
  static constexpr std::uint32_t kPersistentTypeId = 0x53534C52;  // "SSLR"
  std::uint32_t shard_count;
  std::uint32_t reserved;
  SkipListRoot* shards[1];  // [shard_count] entries

  static std::size_t AllocationSize(std::uint32_t shard_count) {
    return offsetof(ShardedSkipListRoot, shards) +
           static_cast<std::size_t>(shard_count) * sizeof(SkipListRoot*);
  }
};

/// The map facade. Volatile object; attach one per process to a
/// persistent SkipListRoot. All operations are lock-free and safe for
/// concurrent use. Worker threads must call
/// epoch()->UnregisterCurrentThread() before exiting.
class SkipListMap {
 public:
  /// Allocates a fresh root + sentinel in `heap`. Returns nullptr if the
  /// heap is out of memory.
  static SkipListRoot* CreateRoot(pheap::PersistentHeap* heap);

  /// Allocates a sharded root holding `shard_count` fresh skip lists in
  /// `heap`. Returns nullptr if the heap is out of memory.
  static ShardedSkipListRoot* CreateShardedRoot(pheap::PersistentHeap* heap,
                                                std::uint32_t shard_count);

  /// Registers SkipNode/SkipListRoot trace functions so the recovery GC
  /// can walk the list.
  static void RegisterTypes(pheap::TypeRegistry* registry);

  /// Attaches to an existing root (e.g. after recovery). By default the
  /// map owns a private EpochManager; pass `shared_epoch` to share one
  /// reclamation domain across several maps in the same heap (the
  /// sharded composition: one Guard covers whichever shard is touched).
  SkipListMap(pheap::PersistentHeap* heap, SkipListRoot* root,
              EpochManager* shared_epoch = nullptr);

  SkipListMap(const SkipListMap&) = delete;
  SkipListMap& operator=(const SkipListMap&) = delete;

  /// Inserts key→value; returns false (no change) if the key exists.
  bool Insert(std::uint64_t key, std::uint64_t value);

  /// Upsert: inserts, or atomically overwrites the existing value.
  /// Returns true if a new node was inserted.
  bool Put(std::uint64_t key, std::uint64_t value);

  /// Reads the current value.
  std::optional<std::uint64_t> Get(std::uint64_t key) const;

  /// Atomically adds `delta` to the key's value, inserting the key with
  /// value `delta` if absent. Returns the post-increment value.
  std::uint64_t IncrementBy(std::uint64_t key, std::uint64_t delta);

  /// Logically deletes and unlinks the key. Returns false if absent.
  bool Remove(std::uint64_t key);

  bool Contains(std::uint64_t key) const { return Get(key).has_value(); }

  /// Visits (key, value) in ascending key order, skipping logically
  /// deleted nodes. Safe concurrently (snapshot semantics are *not*
  /// guaranteed; recovery/validation callers are quiescent).
  template <typename F>
  void ForEach(F&& fn) const {
    EpochManager::Guard guard(epoch_);
    const SkipNode* node = Deref(LoadNext(root_->head, 0));
    while (node != nullptr) {
      const std::uint64_t next = node->next[0].load(std::memory_order_acquire);
      if (!IsMarked(next)) {
        fn(node->key, node->value.load(std::memory_order_acquire));
      }
      node = Deref(next);
    }
  }

  /// Structural invariant check (quiescent callers): every level sorted
  /// strictly ascending, every node present at level 0, no marked nodes
  /// when `expect_no_marks`. Fatal on violation. Returns node count.
  std::uint64_t Validate(bool expect_no_marks = false) const;

  EpochManager* epoch() { return epoch_; }
  SkipListRoot* root() const { return root_; }

  /// Volatile descent hint: one past the highest level known to hold a
  /// node (recomputed from the head tower at attach; test accessor).
  int top_level_hint() const {
    return top_level_.load(std::memory_order_relaxed);
  }

 private:
  static bool IsMarked(std::uint64_t word) { return (word & 1) != 0; }
  static SkipNode* Deref(std::uint64_t word) {
    return reinterpret_cast<SkipNode*>(word & ~std::uint64_t{1});
  }
  static std::uint64_t MakeWord(const SkipNode* node, bool marked) {
    return reinterpret_cast<std::uint64_t>(node) |
           (marked ? std::uint64_t{1} : 0);
  }
  static std::uint64_t LoadNext(const SkipNode* node, int level) {
    return node->next[level].load(std::memory_order_acquire);
  }

  int RandomHeight();

  /// Raises the descent hint to at least `level_count`. Must happen
  /// before a node of that height becomes reachable at upper levels so
  /// concurrent Finds traverse (and correctly fill preds/succs for)
  /// every level the node occupies.
  void RaiseTopLevel(int level_count);

  /// Wait-free search (no helping, no unlinking): returns the unmarked
  /// node holding `key`, or nullptr. Caller must hold an epoch guard.
  /// This is the NVTraverse-style traversal phase — acquire loads only,
  /// no stores, no persistence ordering.
  SkipNode* SearchNode(std::uint64_t key) const;

  /// Herlihy–Shavit find: fills preds/succs per level for `key`,
  /// physically unlinking marked nodes on the way. Returns true if a
  /// node with `key` exists at level 0 (succs[0] is it). Nodes this call
  /// unlinked at level 0 are handed to the retire protocol before
  /// returning. Caller must hold an epoch guard.
  bool Find(std::uint64_t key, SkipNode** preds, SkipNode** succs);

  /// Single-descent upsert core shared by Insert and IncrementBy: one
  /// Find either locates `key` (returns the existing node so the caller
  /// can apply its read-modify-write under the same guard) or links a
  /// fresh node carrying `value` (returns nullptr). The old shape —
  /// SearchNode miss, then Insert's own Find — paid two full descents
  /// for every absent key, and descents dominate at large n. Caller
  /// must hold an epoch guard.
  SkipNode* UpsertCore(std::uint64_t key, std::uint64_t value);

  /// Resolves who retires `victim` after its level-0 unlink (see
  /// SkipNode::LinkState).
  void RetireProtocol(SkipNode* victim);

  /// Inserter-side end of the handshake: marks the tower complete, or —
  /// if the node was abandoned mid-insert — performs the cleanup walk
  /// and retires it.
  void FinishLinking(SkipNode* node);

  /// Unlinks any remaining upper-level references to `victim` (whose
  /// level 0 is already unlinked and whose tower can no longer grow),
  /// then retires it.
  void CleanupWalkAndRetire(SkipNode* victim);

  SkipNode* AllocNode(std::uint64_t key, std::uint64_t value, int height);

  pheap::PersistentHeap* heap_;
  SkipListRoot* root_;
  std::unique_ptr<EpochManager> owned_epoch_;  // null when sharing
  EpochManager* epoch_;
  /// One past the highest occupied level; descents start here instead
  /// of kMaxHeight-1. Monotonically non-decreasing while attached. The
  /// hint is advisory, not trusted: Find re-checks the head tower above
  /// it and self-raises when a concurrent inserter (or another facade
  /// on the same root) linked a taller node, so a stale snapshot can
  /// never anchor a link CAS past an unseen level.
  std::atomic<int> top_level_;
};

}  // namespace tsp::lockfree

#endif  // TSP_LOCKFREE_SKIPLIST_H_
