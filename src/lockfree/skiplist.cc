#include "lockfree/skiplist.h"

#include <new>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "pheap/sanitizer.h"

namespace tsp::lockfree {
namespace {

// Per-thread PRNG for node heights; seeds diverge per thread.
std::uint64_t NextHeightBits() {
  thread_local Random rng(0x9E3779B97F4A7C15ULL ^
                          reinterpret_cast<std::uint64_t>(&rng));
  return rng.Next();
}

// Victims unlinked at level 0 by the current Find descent; processed
// after the descent completes so the retire protocol's own walks never
// recurse into Find.
thread_local std::vector<SkipNode*> tls_unlinked;

// §4.1 non-blocking domain: skiplist nodes and root are mutated with
// plain CAS/stores by design and never undo-logged; the whole arena of
// the owning heap is registered once (instead of per node, which put a
// global mutex on the allocation path) and TSPSan/TSPRace replay the
// registration when they arm. tsp-lint: nonblocking
void RegisterArenaNonBlocking(pheap::PersistentHeap* heap) {
  const pheap::RegionHeader* header = heap->region()->header();
  pheap::TspSanitizer::RegisterNonBlockingRange(
      heap->region()->FromOffset(header->arena_offset), header->arena_size,
      "lockfree-skiplist");
}

}  // namespace

SkipListRoot* SkipListMap::CreateRoot(pheap::PersistentHeap* heap) {
  void* head_mem = heap->Alloc(SkipNode::AllocationSize(SkipNode::kMaxHeight),
                               SkipNode::kPersistentTypeId);
  if (head_mem == nullptr) return nullptr;
  RegisterArenaNonBlocking(heap);
  auto* head = new (head_mem) SkipNode{};
  head->key = 0;
  head->value.store(0, std::memory_order_relaxed);
  head->height = SkipNode::kMaxHeight;
  head->is_head = 1;
  head->link_state.store(SkipNode::kLinked, std::memory_order_relaxed);
  for (int level = 0; level < SkipNode::kMaxHeight; ++level) {
    head->next[level].store(0, std::memory_order_relaxed);
  }

  SkipListRoot* root = heap->New<SkipListRoot>();
  if (root == nullptr) {
    heap->Free(head_mem);
    return nullptr;
  }
  root->head = head;
  return root;
}

ShardedSkipListRoot* SkipListMap::CreateShardedRoot(
    pheap::PersistentHeap* heap, std::uint32_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  void* mem = heap->Alloc(ShardedSkipListRoot::AllocationSize(shard_count),
                          ShardedSkipListRoot::kPersistentTypeId);
  if (mem == nullptr) return nullptr;
  auto* root = new (mem) ShardedSkipListRoot{};
  root->shard_count = shard_count;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    root->shards[i] = CreateRoot(heap);
    if (root->shards[i] == nullptr) return nullptr;  // GC sweeps partials
  }
  return root;
}

void SkipListMap::RegisterTypes(pheap::TypeRegistry* registry) {
  registry->Register(pheap::TypeInfo{
      ShardedSkipListRoot::kPersistentTypeId, "ShardedSkipListRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const auto* root = static_cast<const ShardedSkipListRoot*>(payload);
        for (std::uint32_t i = 0; i < root->shard_count; ++i) {
          visit(root->shards[i]);
        }
      }});
  registry->Register(pheap::TypeInfo{
      SkipListRoot::kPersistentTypeId, "SkipListRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        visit(static_cast<const SkipListRoot*>(payload)->head);
      }});
  registry->Register(pheap::TypeInfo{
      SkipNode::kPersistentTypeId, "SkipNode",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const auto* node = static_cast<const SkipNode*>(payload);
        for (std::int32_t level = 0; level < node->height; ++level) {
          const std::uint64_t word =
              node->next[level].load(std::memory_order_relaxed);
          visit(reinterpret_cast<const void*>(word & ~std::uint64_t{1}));
        }
      }});
}

SkipListMap::SkipListMap(pheap::PersistentHeap* heap, SkipListRoot* root,
                         EpochManager* shared_epoch)
    : heap_(heap),
      root_(root),
      owned_epoch_(shared_epoch != nullptr
                       ? nullptr
                       : std::make_unique<EpochManager>(
                             [heap](void* p) { heap->Free(p); })),
      epoch_(shared_epoch != nullptr ? shared_epoch : owned_epoch_.get()) {
  TSP_CHECK(root_ != nullptr && root_->head != nullptr);
  // Attach path (no CreateRoot in this process) must register too.
  RegisterArenaNonBlocking(heap);
  // Seed the descent hint from the head tower: one past the highest
  // level with a successor. Partially linked towers from a crash sit
  // below the hint by construction (a level is occupied only if linked
  // from the head chain).
  int top = 1;
  for (int level = SkipNode::kMaxHeight - 1; level >= 1; --level) {
    if (root_->head->next[level].load(std::memory_order_relaxed) != 0) {
      top = level + 1;
      break;
    }
  }
  top_level_.store(top, std::memory_order_relaxed);
}

void SkipListMap::RaiseTopLevel(int level_count) {
  int seen = top_level_.load(std::memory_order_relaxed);
  while (seen < level_count &&
         !top_level_.compare_exchange_weak(seen, level_count,
                                           std::memory_order_relaxed)) {
  }
}

int SkipListMap::RandomHeight() {
  // Geometric with p = 1/4, like LevelDB; expected height 1.33.
  int height = 1;
  std::uint64_t bits = NextHeightBits();
  while (height < SkipNode::kMaxHeight && (bits & 3) == 0) {
    ++height;
    bits >>= 2;
    if (bits == 0) bits = NextHeightBits();
  }
  return height;
}

SkipNode* SkipListMap::AllocNode(std::uint64_t key, std::uint64_t value,
                                 int height) {
  std::size_t size = SkipNode::AllocationSize(height);
  void* mem = heap_->Alloc(size, SkipNode::kPersistentTypeId);
  if (mem == nullptr) return nullptr;
  auto* node = new (mem) SkipNode{};
  node->key = key;
  node->value.store(value, std::memory_order_relaxed);
  node->height = static_cast<std::int32_t>(height);
  node->is_head = 0;
  node->link_state.store(SkipNode::kLinking, std::memory_order_relaxed);
  for (int level = 0; level < height; ++level) {
    node->next[level].store(0, std::memory_order_relaxed);
  }
  return node;
}

bool SkipListMap::Find(std::uint64_t key, SkipNode** preds,
                       SkipNode** succs) {
retry:
  // Levels at or above the hint are expected to be empty: point them at
  // the head with a null successor so upper-level link CASes validate
  // against "no successor". The hint snapshot can be stale — a
  // concurrent inserter (or another facade on the same root) may have
  // raised it and linked a tall node between our load of `start` and
  // the head-tower reads below. Trusting such a snapshot is unsound:
  // succs[L] could be a node with key < `key`, and UpsertCore's link
  // CAS only validates the pointer word, so it would splice the new
  // node *before* a smaller key (level-L order inversion, which in turn
  // breaks CleanupWalkAndRetire's early-exit scan — use-after-free). If
  // any of these levels has a successor the hint is stale by
  // definition; adopt it and re-descend so the level is traversed
  // properly.
  const int start = top_level_.load(std::memory_order_relaxed);
  for (int level = SkipNode::kMaxHeight - 1; level >= start; --level) {
    preds[level] = root_->head;
    if (Deref(LoadNext(root_->head, level)) != nullptr) {
      RaiseTopLevel(level + 1);
      goto retry;
    }
    succs[level] = nullptr;
  }
  SkipNode* pred = root_->head;
  for (int level = start - 1; level >= 0; --level) {
    std::uint64_t curr_word = LoadNext(pred, level);
    for (;;) {
      SkipNode* curr = Deref(curr_word);
      if (curr == nullptr) break;
      std::uint64_t succ_word = LoadNext(curr, level);
      // Overlap the next hop's cache miss with this node's key compare:
      // the descent is memory-latency bound at large n.
      __builtin_prefetch(Deref(succ_word));
      while (IsMarked(succ_word)) {
        // curr is logically deleted: unlink it at this level.
        std::uint64_t expected = MakeWord(curr, false);
        if (!pred->next[level].compare_exchange_strong(
                expected, MakeWord(Deref(succ_word), false),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          goto retry;  // pred changed or was marked; restart from head
        }
        if (level == 0) tls_unlinked.push_back(curr);
        curr = Deref(succ_word);
        if (curr == nullptr) break;
        succ_word = LoadNext(curr, level);
      }
      if (curr == nullptr) break;
      if (curr->key < key) {
        pred = curr;
        curr_word = succ_word;  // already read from pred->next[level]
      } else {
        break;
      }
    }
    preds[level] = pred;
    succs[level] = Deref(curr_word);
  }
  const bool found = succs[0] != nullptr && succs[0]->key == key;

  if (!tls_unlinked.empty()) {
    // Process outside the descent so cleanup walks never nest in Find.
    std::vector<SkipNode*> victims;
    victims.swap(tls_unlinked);
    for (SkipNode* victim : victims) RetireProtocol(victim);
  }
  return found;
}

void SkipListMap::RetireProtocol(SkipNode* victim) {
  std::uint32_t state = victim->link_state.load(std::memory_order_acquire);
  for (;;) {
    if (state == SkipNode::kLinked) {
      if (victim->link_state.compare_exchange_weak(
              state, SkipNode::kRetired, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        CleanupWalkAndRetire(victim);
        return;
      }
    } else if (state == SkipNode::kLinking) {
      // The inserter is still building the tower; hand it the cleanup
      // obligation.
      if (victim->link_state.compare_exchange_weak(
              state, SkipNode::kAbandoned, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        return;
      }
    } else {
      return;  // kAbandoned/kRetired: ownership already assigned
    }
  }
}

void SkipListMap::FinishLinking(SkipNode* node) {
  std::uint32_t expected = SkipNode::kLinking;
  if (node->link_state.compare_exchange_strong(expected, SkipNode::kLinked,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
    return;
  }
  // A remover abandoned the node to us while we were linking: it is
  // already unlinked at level 0; finish the job.
  TSP_DCHECK_EQ(expected, SkipNode::kAbandoned);
  node->link_state.store(SkipNode::kRetired, std::memory_order_release);
  CleanupWalkAndRetire(node);
}

void SkipListMap::CleanupWalkAndRetire(SkipNode* victim) {
  // The victim's tower can no longer grow (link_state == kRetired) and
  // level 0 is already unlinked. Remove any remaining upper-level
  // predecessors' references; navigation skips (without helping) other
  // marked nodes, so this never recurses.
  for (int level = victim->height - 1; level >= 1; --level) {
    for (;;) {
      SkipNode* found_pred = nullptr;
      std::uint64_t found_word = 0;
      const SkipNode* scan = root_->head;
      while (scan != nullptr) {
        const std::uint64_t next_word = LoadNext(scan, level);
        SkipNode* next = Deref(next_word);
        if (next == victim) {
          found_pred = const_cast<SkipNode*>(scan);
          found_word = next_word;
          break;
        }
        if (next == nullptr || next->key > victim->key) break;
        scan = next;
      }
      if (found_pred == nullptr) break;  // not linked at this level
      // Preserve the pred's own mark bit; unlinking through a marked
      // pred is harmless (the pred is itself unreachable).
      const std::uint64_t replacement = MakeWord(
          Deref(LoadNext(victim, level)), IsMarked(found_word));
      std::uint64_t expected = found_word;
      if (found_pred->next[level].compare_exchange_strong(
              expected, replacement, std::memory_order_acq_rel,
              std::memory_order_acquire)) {
        break;
      }
      // Raced; rescan this level.
    }
  }
  epoch_->Retire(victim);
}

bool SkipListMap::Insert(std::uint64_t key, std::uint64_t value) {
  EpochManager::Guard guard(epoch_);
  return UpsertCore(key, value) == nullptr;
}

SkipNode* SkipListMap::UpsertCore(std::uint64_t key, std::uint64_t value) {
  SkipNode* preds[SkipNode::kMaxHeight];
  SkipNode* succs[SkipNode::kMaxHeight];
  int height = 0;
  SkipNode* node = nullptr;
  for (;;) {
    if (Find(key, preds, succs)) {
      // Key present; an allocated-but-never-published node can be freed
      // immediately (no other thread ever saw it).
      if (node != nullptr) heap_->Free(node);
      return succs[0];
    }
    if (node == nullptr) {
      height = RandomHeight();
      // Before anything at `height` can become reachable, the hint must
      // cover it (monotonic; searches trust hint >= any linked height).
      // Preds/succs above the pre-raise descent start are head-anchored
      // and CAS-validated at link time, so raising after Find is safe.
      RaiseTopLevel(height);
      node = AllocNode(key, value, height);
      TSP_CHECK(node != nullptr) << "persistent heap exhausted";
    }
    // Prepare the full tower before publication: the node must be
    // completely consistent before it can be reached (crash safety and
    // lock freedom both hinge on this).
    for (int level = 0; level < height; ++level) {
      node->next[level].store(MakeWord(succs[level], false),
                              std::memory_order_relaxed);
    }
    // Publish at level 0; this is the linearization point.
    std::uint64_t expected = MakeWord(succs[0], false);
    if (!preds[0]->next[0].compare_exchange_strong(
            expected, MakeWord(node, false), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      continue;  // raced; re-find and retry
    }

    // Link the upper levels.
    for (int level = 1; level < height; ++level) {
      for (;;) {
        const std::uint64_t cur =
            node->next[level].load(std::memory_order_acquire);
        if (IsMarked(cur)) {  // concurrent removal reached this level
          FinishLinking(node);
          return nullptr;
        }
        SkipNode* succ = succs[level];
        if (succ == node) break;  // already linked here
        if (Deref(cur) != succ) {
          std::uint64_t expected_next = cur;
          if (!node->next[level].compare_exchange_strong(
                  expected_next, MakeWord(succ, false),
                  std::memory_order_acq_rel, std::memory_order_acquire)) {
            continue;  // re-evaluate (a mark may have appeared)
          }
        }
        std::uint64_t expected_up = MakeWord(succ, false);
        if (preds[level]->next[level].compare_exchange_strong(
                expected_up, MakeWord(node, false),
                std::memory_order_acq_rel, std::memory_order_acquire)) {
          break;
        }
        // Refresh preds/succs; if our node vanished from level 0, a
        // remover owns it now.
        Find(key, preds, succs);
        if (succs[0] != node) {
          FinishLinking(node);
          return nullptr;
        }
      }
    }
    FinishLinking(node);
    return nullptr;
  }
}

bool SkipListMap::Put(std::uint64_t key, std::uint64_t value) {
  for (;;) {
    {
      // Upsert fast path: one wait-free descent, no helping, no CAS.
      EpochManager::Guard guard(epoch_);
      SkipNode* node = SearchNode(key);
      if (node != nullptr) {
        node->value.store(value, std::memory_order_release);
        return false;
      }
    }
    if (Insert(key, value)) return true;
    // Lost the race to another inserter: loop to overwrite its value.
  }
}

SkipNode* SkipListMap::SearchNode(std::uint64_t key) const {
  // Wait-free traversal: no unlinking, just skip marked nodes. Starts
  // at the descent hint instead of kMaxHeight (the head tower above the
  // hint is empty).
  const SkipNode* pred = root_->head;
  for (int level = top_level_.load(std::memory_order_relaxed) - 1;
       level >= 1; --level) {
    const SkipNode* curr = Deref(LoadNext(pred, level));
    while (curr != nullptr) {
      // Prefetch the next hop before the key compare: the descent is
      // memory-latency bound, and the branch usually overlaps the miss.
      const SkipNode* succ = Deref(LoadNext(curr, level));
      __builtin_prefetch(succ);
      if (curr->key >= key) break;
      pred = curr;
      curr = succ;
    }
  }
  const SkipNode* curr = Deref(LoadNext(pred, 0));
  while (curr != nullptr && curr->key < key) {
    const SkipNode* succ = Deref(LoadNext(curr, 0));
    __builtin_prefetch(succ);
    curr = succ;
  }
  if (curr == nullptr || curr->key != key) return nullptr;
  if (IsMarked(curr->next[0].load(std::memory_order_acquire))) {
    return nullptr;  // logically deleted
  }
  return const_cast<SkipNode*>(curr);
}

std::optional<std::uint64_t> SkipListMap::Get(std::uint64_t key) const {
  EpochManager::Guard guard(epoch_);
  const SkipNode* node = SearchNode(key);
  if (node == nullptr) return std::nullopt;
  return node->value.load(std::memory_order_acquire);
}

std::uint64_t SkipListMap::IncrementBy(std::uint64_t key,
                                       std::uint64_t delta) {
  // Single descent whether the key exists or not: UpsertCore either
  // links a fresh node carrying `delta` or hands back the existing node
  // for an in-place fetch_add under the same guard. (A SearchNode
  // pre-pass would double the traversal cost for every absent key, and
  // insert-heavy phases are where this op lives.)
  EpochManager::Guard guard(epoch_);
  SkipNode* existing = UpsertCore(key, delta);
  if (existing == nullptr) return delta;
  return existing->value.fetch_add(delta, std::memory_order_acq_rel) + delta;
}

bool SkipListMap::Remove(std::uint64_t key) {
  EpochManager::Guard guard(epoch_);
  SkipNode* preds[SkipNode::kMaxHeight];
  SkipNode* succs[SkipNode::kMaxHeight];
  if (!Find(key, preds, succs)) return false;
  SkipNode* victim = succs[0];

  // Mark from the top level down to 1 (idempotent).
  for (int level = victim->height - 1; level >= 1; --level) {
    std::uint64_t word = victim->next[level].load(std::memory_order_acquire);
    while (!IsMarked(word)) {
      victim->next[level].compare_exchange_weak(word, word | 1,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire);
    }
  }
  // The level-0 mark decides who logically deleted the node.
  std::uint64_t word = victim->next[0].load(std::memory_order_acquire);
  for (;;) {
    if (IsMarked(word)) return false;  // someone else won
    if (victim->next[0].compare_exchange_weak(word, word | 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      break;
    }
  }
  // Physically unlink at level 0 (and hand off retirement) via Find.
  Find(key, preds, succs);
  return true;
}

std::uint64_t SkipListMap::Validate(bool expect_no_marks) const {
  std::uint64_t count = 0;
  // Level 0: strictly ascending keys.
  const SkipNode* prev = root_->head;
  for (const SkipNode* node = Deref(LoadNext(prev, 0)); node != nullptr;
       node = Deref(LoadNext(node, 0))) {
    if (prev->is_head == 0) {
      TSP_CHECK_LT(prev->key, node->key) << "level-0 order violated";
    }
    if (expect_no_marks) {
      for (std::int32_t level = 0; level < node->height; ++level) {
        TSP_CHECK(
            !IsMarked(node->next[level].load(std::memory_order_relaxed)))
            << "unexpected deletion mark";
      }
    }
    ++count;
    prev = node;
  }
  // Upper levels: sorted; heights consistent.
  for (int level = 1; level < SkipNode::kMaxHeight; ++level) {
    const SkipNode* upper_prev = root_->head;
    for (const SkipNode* node = Deref(LoadNext(upper_prev, level));
         node != nullptr; node = Deref(LoadNext(node, level))) {
      if (upper_prev->is_head == 0) {
        TSP_CHECK_LT(upper_prev->key, node->key)
            << "level-" << level << " order violated";
      }
      TSP_CHECK_GE(node->height, level + 1);
      upper_prev = node;
    }
  }
  return count;
}

}  // namespace tsp::lockfree
