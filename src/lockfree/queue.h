// Copyright 2026 The TSP Authors.
// Lock-free Michael–Scott FIFO queue over the persistent heap — a
// second instance of the §4.1 recipe: any non-blocking structure on a
// TSP persistent heap is crash-resilient with zero runtime overhead.
//
// Crash consistency by construction:
//   * enqueue fully initializes the node, then publishes it with a CAS
//     on the last node's next pointer; the tail pointer is swung by a
//     separate (helpable) CAS, and a crash that leaves tail lagging is
//     the same state concurrent threads routinely observe and repair;
//   * dequeue advances head past the dummy with one CAS.
// The recovery observer finds a well-formed queue at every instant.

#ifndef TSP_LOCKFREE_QUEUE_H_
#define TSP_LOCKFREE_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "lockfree/epoch.h"
#include "pheap/heap.h"
#include "pheap/type_registry.h"

namespace tsp::lockfree {

/// Persistent queue node. The first node reachable from head is a
/// dummy; its value is meaningless.
struct QueueNode {
  static constexpr std::uint32_t kPersistentTypeId = 0x514E4F44;  // "QNOD"
  std::uint64_t value;
  std::atomic<QueueNode*> next;
};

/// Persistent root of a queue. It holds no counters: an operation
/// writes the queue only through its CASes on the root and the nodes.
struct QueueRoot {
  static constexpr std::uint32_t kPersistentTypeId = 0x51524F54;  // "QROT"
  std::atomic<QueueNode*> head;  // points at the current dummy
  std::atomic<QueueNode*> tail;  // at or one behind the last node
};

/// Volatile facade over a persistent QueueRoot. Lock-free; worker
/// threads call epoch()->UnregisterCurrentThread() before exiting.
class LockFreeQueue {
 public:
  /// Allocates a root + dummy node; nullptr if the heap is full.
  static QueueRoot* CreateRoot(pheap::PersistentHeap* heap);

  /// GC trace functions for QueueRoot/QueueNode.
  static void RegisterTypes(pheap::TypeRegistry* registry);

  LockFreeQueue(pheap::PersistentHeap* heap, QueueRoot* root);

  LockFreeQueue(const LockFreeQueue&) = delete;
  LockFreeQueue& operator=(const LockFreeQueue&) = delete;

  /// Appends `value`. Fatal on heap exhaustion.
  void Enqueue(std::uint64_t value);

  /// Removes and returns the oldest value, or nullopt when empty.
  std::optional<std::uint64_t> Dequeue();

  /// Walks the queue (quiescent callers), checking structure: head
  /// reachable to tail, tail at or one behind the last node. Fatal on
  /// violation; returns the length.
  std::uint64_t Validate() const;

  EpochManager* epoch() { return epoch_.get(); }
  QueueRoot* root() const { return root_; }

 private:
  QueueNode* AllocNode(std::uint64_t value);

  pheap::PersistentHeap* heap_;
  QueueRoot* root_;
  std::unique_ptr<EpochManager> epoch_;
};

}  // namespace tsp::lockfree

#endif  // TSP_LOCKFREE_QUEUE_H_
