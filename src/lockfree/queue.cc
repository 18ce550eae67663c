#include "lockfree/queue.h"

#include <new>

#include "common/logging.h"
#include "pheap/sanitizer.h"

namespace tsp::lockfree {

QueueRoot* LockFreeQueue::CreateRoot(pheap::PersistentHeap* heap) {
  auto* dummy = static_cast<QueueNode*>(
      heap->Alloc(sizeof(QueueNode), QueueNode::kPersistentTypeId));
  if (dummy == nullptr) return nullptr;
  // §4.1 non-blocking domain: queue nodes and root are mutated with
  // plain CAS/stores by design and never undo-logged. tsp-lint: nonblocking
  pheap::TspSanitizer::RegisterNonBlockingRange(dummy, sizeof(QueueNode),
                                                "lockfree-queue");
  dummy->value = 0;
  dummy->next.store(nullptr, std::memory_order_relaxed);

  QueueRoot* root = heap->New<QueueRoot>();
  if (root == nullptr) {
    heap->Free(dummy);
    return nullptr;
  }
  pheap::TspSanitizer::RegisterNonBlockingRange(root, sizeof(QueueRoot),
                                                "lockfree-queue");
  root->head.store(dummy, std::memory_order_relaxed);
  root->tail.store(dummy, std::memory_order_relaxed);
  return root;
}

void LockFreeQueue::RegisterTypes(pheap::TypeRegistry* registry) {
  registry->Register(pheap::TypeInfo{
      QueueRoot::kPersistentTypeId, "QueueRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const auto* root = static_cast<const QueueRoot*>(payload);
        visit(root->head.load(std::memory_order_relaxed));
        visit(root->tail.load(std::memory_order_relaxed));
      }});
  registry->Register(pheap::TypeInfo{
      QueueNode::kPersistentTypeId, "QueueNode",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        visit(static_cast<const QueueNode*>(payload)->next.load(
            std::memory_order_relaxed));
      }});
}

LockFreeQueue::LockFreeQueue(pheap::PersistentHeap* heap, QueueRoot* root)
    : heap_(heap),
      root_(root),
      epoch_(std::make_unique<EpochManager>(
          [heap](void* p) { heap->Free(p); })) {
  TSP_CHECK(root_ != nullptr);
  TSP_CHECK(root_->head.load(std::memory_order_relaxed) != nullptr);
}

QueueNode* LockFreeQueue::AllocNode(std::uint64_t value) {
  auto* node = static_cast<QueueNode*>(
      heap_->Alloc(sizeof(QueueNode), QueueNode::kPersistentTypeId));
  TSP_CHECK(node != nullptr) << "persistent heap exhausted";
  pheap::TspSanitizer::RegisterNonBlockingRange(node, sizeof(QueueNode),
                                                "lockfree-queue");
  node->value = value;
  node->next.store(nullptr, std::memory_order_relaxed);
  return node;
}

void LockFreeQueue::Enqueue(std::uint64_t value) {
  EpochManager::Guard guard(epoch_.get());
  QueueNode* node = AllocNode(value);  // fully built before publication
  for (;;) {
    QueueNode* tail = root_->tail.load(std::memory_order_acquire);
    QueueNode* next = tail->next.load(std::memory_order_acquire);
    if (tail != root_->tail.load(std::memory_order_acquire)) continue;
    if (next != nullptr) {
      // Tail is lagging (a peer published but has not swung yet, or a
      // crash in a previous session left it behind): help.
      root_->tail.compare_exchange_weak(tail, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
      continue;
    }
    QueueNode* expected = nullptr;
    if (tail->next.compare_exchange_weak(expected, node,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      // Publication succeeded: the linearization point. Swinging tail
      // is best-effort; anyone can finish it.
      root_->tail.compare_exchange_strong(tail, node,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
      return;
    }
  }
}

std::optional<std::uint64_t> LockFreeQueue::Dequeue() {
  EpochManager::Guard guard(epoch_.get());
  for (;;) {
    QueueNode* head = root_->head.load(std::memory_order_acquire);
    QueueNode* tail = root_->tail.load(std::memory_order_acquire);
    QueueNode* next = head->next.load(std::memory_order_acquire);
    if (head != root_->head.load(std::memory_order_acquire)) continue;
    if (next == nullptr) return std::nullopt;  // only the dummy: empty
    if (head == tail) {
      // Tail lags behind a non-empty queue: help before consuming.
      root_->tail.compare_exchange_weak(tail, next,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire);
      continue;
    }
    const std::uint64_t value = next->value;  // read before the CAS
    if (root_->head.compare_exchange_weak(head, next,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      // The old dummy is unreachable from the root now; epochs protect
      // in-flight readers, the recovery GC reclaims it after a crash.
      epoch_->Retire(head);
      return value;
    }
  }
}

std::uint64_t LockFreeQueue::Validate() const {
  const QueueNode* head = root_->head.load(std::memory_order_acquire);
  const QueueNode* tail = root_->tail.load(std::memory_order_acquire);
  TSP_CHECK(head != nullptr);
  TSP_CHECK(tail != nullptr);
  std::uint64_t length = 0;
  bool tail_seen = false;
  const QueueNode* last = head;
  for (const QueueNode* node = head; node != nullptr;
       node = node->next.load(std::memory_order_acquire)) {
    if (node == tail) tail_seen = true;
    last = node;
    ++length;
    TSP_CHECK_LE(length, 1u << 30) << "queue cycle detected";
  }
  TSP_CHECK(tail_seen) << "tail not reachable from head";
  // Tail is the last node, or (after a crash/in-flight enqueue) exactly
  // one behind it.
  TSP_CHECK(tail == last ||
            tail->next.load(std::memory_order_acquire) == last)
      << "tail lags by more than one node";
  // Dummy node is not an element.
  return length - 1;
}

}  // namespace tsp::lockfree
