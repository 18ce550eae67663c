#include "lockfree/hashmap.h"

#include <new>

#include "common/logging.h"
#include "pheap/layout.h"
#include "pheap/sanitizer.h"

namespace tsp::lockfree {
namespace {

// splitmix64 finalizer: same mixing ShardedMap uses for routing, so
// bucket occupancy stays uniform even for dense integer key ranges.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t RoundUpPow2(std::uint64_t n) {
  if (n < 2) return 2;
  --n;
  for (int shift = 1; shift < 64; shift <<= 1) n |= n >> shift;
  return n + 1;
}

// §4.1 non-blocking domain: hash map nodes and root are mutated with
// plain CAS/stores by design and never undo-logged; registered once per
// heap (arena-wide), replayed by TSPSan/TSPRace when they arm.
// tsp-lint: nonblocking
void RegisterArenaNonBlocking(pheap::PersistentHeap* heap) {
  const pheap::RegionHeader* header = heap->region()->header();
  pheap::TspSanitizer::RegisterNonBlockingRange(
      heap->region()->FromOffset(header->arena_offset), header->arena_size,
      "lockfree-hashmap");
}

}  // namespace

LockFreeHashRoot* LockFreeHashMap::CreateRoot(pheap::PersistentHeap* heap,
                                              std::uint64_t bucket_count) {
  bucket_count = RoundUpPow2(bucket_count);
  void* mem = heap->Alloc(LockFreeHashRoot::AllocationSize(bucket_count),
                          LockFreeHashRoot::kPersistentTypeId);
  if (mem == nullptr) return nullptr;
  RegisterArenaNonBlocking(heap);
  auto* root = new (mem) LockFreeHashRoot{};
  root->bucket_count = bucket_count;
  root->reserved = 0;
  for (std::uint64_t b = 0; b < bucket_count; ++b) {
    root->buckets[b].store(0, std::memory_order_relaxed);
  }
  return root;
}

void LockFreeHashMap::RegisterTypes(pheap::TypeRegistry* registry) {
  registry->Register(pheap::TypeInfo{
      LockFreeHashRoot::kPersistentTypeId, "LockFreeHashRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const auto* root = static_cast<const LockFreeHashRoot*>(payload);
        for (std::uint64_t b = 0; b < root->bucket_count; ++b) {
          const std::uint64_t word =
              root->buckets[b].load(std::memory_order_relaxed);
          visit(reinterpret_cast<const void*>(word & ~std::uint64_t{1}));
        }
      }});
  registry->Register(pheap::TypeInfo{
      HashNode::kPersistentTypeId, "LockFreeHashNode",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const std::uint64_t word = static_cast<const HashNode*>(payload)
                                       ->next.load(std::memory_order_relaxed);
        visit(reinterpret_cast<const void*>(word & ~std::uint64_t{1}));
      }});
}

LockFreeHashMap::LockFreeHashMap(pheap::PersistentHeap* heap,
                                 LockFreeHashRoot* root,
                                 EpochManager* shared_epoch)
    : heap_(heap),
      owned_epoch_(shared_epoch != nullptr
                       ? nullptr
                       : std::make_unique<EpochManager>(
                             [heap](void* p) { heap->Free(p); })),
      epoch_(shared_epoch != nullptr ? shared_epoch : owned_epoch_.get()) {
  TSP_CHECK(root != nullptr && root->bucket_count >= 2 &&
            (root->bucket_count & (root->bucket_count - 1)) == 0);
  buckets_ = root->buckets;
  mask_ = root->bucket_count - 1;
  // Attach path (no CreateRoot in this process) must register too.
  RegisterArenaNonBlocking(heap);
}

std::atomic<std::uint64_t>* LockFreeHashMap::BucketHead(
    std::uint64_t key) const {
  return &buckets_[Mix(key) & mask_];
}

HashNode* LockFreeHashMap::AllocNode(std::uint64_t key, std::uint64_t value) {
  void* mem = heap_->Alloc(sizeof(HashNode), HashNode::kPersistentTypeId);
  if (mem == nullptr) return nullptr;
  auto* node = new (mem) HashNode{};
  node->key = key;
  node->value.store(value, std::memory_order_relaxed);
  node->next.store(0, std::memory_order_relaxed);
  return node;
}

bool LockFreeHashMap::FindInBucket(std::atomic<std::uint64_t>* head,
                                   std::uint64_t key, Cursor* cursor) {
try_again:
  std::atomic<std::uint64_t>* prev = head;
  std::uint64_t curr_word = prev->load(std::memory_order_acquire);
  for (;;) {
    HashNode* curr = Deref(curr_word);
    if (curr == nullptr) {
      cursor->prev = prev;
      cursor->curr = nullptr;
      return false;
    }
    const std::uint64_t next_word =
        curr->next.load(std::memory_order_acquire);
    // Consistency check (Michael's algorithm): if prev no longer points
    // at curr — the list changed under us, or prev itself got marked —
    // restart from the bucket head.
    if (prev->load(std::memory_order_acquire) != MakeWord(curr, false)) {
      goto try_again;
    }
    if (IsMarked(next_word)) {
      // curr is logically deleted: help unlink it. The thread whose CAS
      // physically removes the node retires it (exactly once: only one
      // unlink CAS on the single incoming pointer can succeed).
      std::uint64_t expected = MakeWord(curr, false);
      if (!prev->compare_exchange_strong(
              expected, MakeWord(Deref(next_word), false),
              std::memory_order_acq_rel, std::memory_order_acquire)) {
        goto try_again;
      }
      epoch_->Retire(curr);
      curr_word = MakeWord(Deref(next_word), false);
      continue;
    }
    if (curr->key >= key) {
      cursor->prev = prev;
      cursor->curr = curr;
      return curr->key == key;
    }
    prev = &curr->next;
    curr_word = next_word;
  }
}

HashNode* LockFreeHashMap::SearchNode(std::uint64_t key) const {
  const HashNode* curr = Deref(BucketHead(key)->load(std::memory_order_acquire));
  while (curr != nullptr && curr->key < key) {
    curr = Deref(curr->next.load(std::memory_order_acquire));
  }
  if (curr == nullptr || curr->key != key) return nullptr;
  if (IsMarked(curr->next.load(std::memory_order_acquire))) {
    return nullptr;  // logically deleted
  }
  return const_cast<HashNode*>(curr);
}

bool LockFreeHashMap::Insert(std::uint64_t key, std::uint64_t value) {
  EpochManager::Guard guard(epoch_);
  std::atomic<std::uint64_t>* head = BucketHead(key);
  HashNode* node = nullptr;
  for (;;) {
    Cursor cursor;
    if (FindInBucket(head, key, &cursor)) {
      // Key present; a node never published can be freed immediately.
      if (node != nullptr) heap_->Free(node);
      return false;
    }
    if (node == nullptr) {
      node = AllocNode(key, value);
      TSP_CHECK(node != nullptr) << "persistent heap exhausted";
    }
    // Publish-before-link: the node is complete before the CAS makes it
    // reachable — the linearization point and the crash-consistency
    // point coincide.
    node->next.store(MakeWord(cursor.curr, false),
                     std::memory_order_relaxed);
    std::uint64_t expected = MakeWord(cursor.curr, false);
    if (cursor.prev->compare_exchange_strong(
            expected, MakeWord(node, false), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      return true;
    }
    // Raced; re-find and retry with the already-allocated node.
  }
}

bool LockFreeHashMap::Put(std::uint64_t key, std::uint64_t value) {
  for (;;) {
    {
      // Upsert fast path: one wait-free bucket scan, no helping, no CAS.
      EpochManager::Guard guard(epoch_);
      HashNode* node = SearchNode(key);
      if (node != nullptr) {
        node->value.store(value, std::memory_order_release);
        return false;
      }
    }
    if (Insert(key, value)) return true;
    // Lost the race to another inserter: loop to overwrite its value.
  }
}

std::optional<std::uint64_t> LockFreeHashMap::Get(std::uint64_t key) const {
  EpochManager::Guard guard(epoch_);
  const HashNode* node = SearchNode(key);
  if (node == nullptr) return std::nullopt;
  return node->value.load(std::memory_order_acquire);
}

std::uint64_t LockFreeHashMap::IncrementBy(std::uint64_t key,
                                           std::uint64_t delta) {
  for (;;) {
    {
      // Counter fast path: one wait-free bucket scan + fetch_add.
      EpochManager::Guard guard(epoch_);
      HashNode* node = SearchNode(key);
      if (node != nullptr) {
        return node->value.fetch_add(delta, std::memory_order_acq_rel) +
               delta;
      }
    }
    if (Insert(key, delta)) return delta;
    // Raced with a concurrent inserter; retry as an in-place add.
  }
}

bool LockFreeHashMap::Remove(std::uint64_t key) {
  EpochManager::Guard guard(epoch_);
  std::atomic<std::uint64_t>* head = BucketHead(key);
  for (;;) {
    Cursor cursor;
    if (!FindInBucket(head, key, &cursor)) return false;
    HashNode* victim = cursor.curr;
    std::uint64_t next_word = victim->next.load(std::memory_order_acquire);
    if (IsMarked(next_word)) continue;  // another remover won; re-find
    // The next-pointer mark is the logical delete / linearization point.
    if (!victim->next.compare_exchange_strong(
            next_word, next_word | 1, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      continue;  // next changed (insert after victim, or a mark); retry
    }
    // Try to unlink in place; on failure a find's helping pass retires.
    std::uint64_t expected = MakeWord(victim, false);
    if (cursor.prev->compare_exchange_strong(
            expected, MakeWord(Deref(next_word), false),
            std::memory_order_acq_rel, std::memory_order_acquire)) {
      epoch_->Retire(victim);
    } else {
      Cursor unused;
      FindInBucket(head, key, &unused);
    }
    return true;
  }
}

std::uint64_t LockFreeHashMap::Validate(bool expect_no_marks) const {
  std::uint64_t count = 0;
  for (std::uint64_t b = 0; b <= mask_; ++b) {
    const HashNode* prev = nullptr;
    for (const HashNode* node =
             Deref(buckets_[b].load(std::memory_order_relaxed));
         node != nullptr;
         node = Deref(node->next.load(std::memory_order_relaxed))) {
      TSP_CHECK_EQ(Mix(node->key) & mask_, b) << "key in wrong bucket";
      if (prev != nullptr) {
        TSP_CHECK_LT(prev->key, node->key) << "bucket order violated";
      }
      if (expect_no_marks) {
        TSP_CHECK(!IsMarked(node->next.load(std::memory_order_relaxed)))
            << "unexpected deletion mark";
      }
      ++count;
      prev = node;
    }
  }
  return count;
}

}  // namespace tsp::lockfree
