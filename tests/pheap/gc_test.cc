#include "pheap/gc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "pheap/check.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

// A persistent singly linked list node used to build reachable graphs.
struct ListNode {
  static constexpr std::uint32_t kPersistentTypeId = 101;
  std::uint64_t value = 0;
  ListNode* next = nullptr;
};

// A persistent node whose payload size fixes its fan-out: a slot count
// followed by that many child pointers. Payloads of 8 B (no slots) to
// 8 KiB span the small and medium size classes.
struct FanNode {
  static constexpr std::uint32_t kPersistentTypeId = 102;
  std::uint64_t slot_count;
  const void* slots[1];  // [slot_count] entries

  static std::uint64_t SlotsFor(std::size_t payload_size) {
    return (payload_size - sizeof(std::uint64_t)) / sizeof(void*);
  }
};

void TraceFanNode(const void* payload, const PointerVisitor& visit) {
  const auto* node = static_cast<const FanNode*>(payload);
  for (std::uint64_t i = 0; i < node->slot_count; ++i) visit(node->slots[i]);
}

TypeRegistry MakeRegistry() {
  TypeRegistry registry;
  registry.Register<ListNode>(
      "ListNode", [](const void* payload, const PointerVisitor& visit) {
        visit(static_cast<const ListNode*>(payload)->next);
      });
  registry.Register<FanNode>("FanNode", TraceFanNode);
  return registry;
}

class GcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("gc");
    RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
  }

  // A FanNode filling `payload_size` bytes, every slot null.
  FanNode* NewFanNode(std::size_t payload_size) {
    auto* node = static_cast<FanNode*>(
        heap_->Alloc(payload_size, FanNode::kPersistentTypeId));
    EXPECT_NE(node, nullptr);
    node->slot_count = FanNode::SlotsFor(payload_size);
    for (std::uint64_t i = 0; i < node->slot_count; ++i) {
      node->slots[i] = nullptr;
    }
    return node;
  }

  ListNode* BuildChain(int n) {
    ListNode* head = nullptr;
    for (int i = 0; i < n; ++i) {
      ListNode* node = heap_->New<ListNode>();
      node->value = static_cast<std::uint64_t>(i);
      node->next = head;
      head = node;
    }
    return head;
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<PersistentHeap> heap_;
};

TEST_F(GcTest, EmptyRootFreesEverything) {
  BuildChain(100);  // never linked to the root — all garbage
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 0u);
  EXPECT_EQ(stats.live_bytes, 0u);
  // Everything returned to the bump region.
  EXPECT_EQ(heap_->GetAllocatorStats().bump_offset,
            heap_->region()->header()->arena_offset);
}

// The long chain is the mark's worst case: each node's address is known
// only once its predecessor is read, so no two cache misses overlap.
TEST_F(GcTest, ReachableChainSurvives) {
  const TypeRegistry registry = MakeRegistry();
  for (const int n : {50, 100000}) {
    SCOPED_TRACE(n);
    heap_->set_root(BuildChain(n));
    const GcStats stats = heap_->RunRecoveryGc(registry);
    EXPECT_EQ(stats.live_objects, static_cast<std::uint64_t>(n));
    EXPECT_EQ(stats.invalid_pointers, 0u);

    // Data intact after the sweep.
    int count = 0;
    for (ListNode* node = heap_->root<ListNode>(); node != nullptr;
         node = node->next) {
      ASSERT_EQ(node->value, static_cast<std::uint64_t>(n - 1 - count));
      ++count;
    }
    EXPECT_EQ(count, n);
  }
}

TEST_F(GcTest, UnreachableTailIsReclaimed) {
  ListNode* head = BuildChain(100);
  // Keep only the first 10 nodes reachable.
  ListNode* cut = head;
  for (int i = 0; i < 9; ++i) cut = cut->next;
  cut->next = nullptr;
  heap_->set_root(head);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 10u);
  EXPECT_GT(stats.free_blocks + (stats.tail_reclaimed_bytes > 0 ? 1 : 0), 0u);

  // The reclaimed space is allocatable again.
  for (int i = 0; i < 90; ++i) {
    EXPECT_NE(heap_->New<ListNode>(), nullptr);
  }
}

TEST_F(GcTest, InteriorGapsBecomeFreeBlocks) {
  std::vector<ListNode*> nodes;
  for (int i = 0; i < 100; ++i) nodes.push_back(heap_->New<ListNode>());
  // Chain only even-indexed nodes; odd ones become interior garbage.
  for (int i = 0; i + 2 < 100; i += 2) nodes[i]->next = nodes[i + 2];
  nodes[98]->next = nullptr;
  heap_->set_root(nodes[0]);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 50u);
  EXPECT_GT(stats.free_blocks, 0u);
  EXPECT_GT(stats.free_bytes, 0u);
}

TEST_F(GcTest, RebuiltFreeListsAreUsable) {
  std::vector<ListNode*> nodes;
  for (int i = 0; i < 64; ++i) nodes.push_back(heap_->New<ListNode>());
  for (int i = 0; i + 2 < 64; i += 2) nodes[i]->next = nodes[i + 2];
  nodes[62]->next = nullptr;
  heap_->set_root(nodes[0]);

  const TypeRegistry registry = MakeRegistry();
  heap_->RunRecoveryGc(registry);

  const std::uint64_t bump_before = heap_->GetAllocatorStats().bump_offset;
  // 32 interior gaps of 32 bytes: new same-class allocations must come
  // from rebuilt free lists, not from bumping.
  for (int i = 0; i < 30; ++i) ASSERT_NE(heap_->New<ListNode>(), nullptr);
  EXPECT_EQ(heap_->GetAllocatorStats().bump_offset, bump_before);
}

TEST_F(GcTest, SimulatedTornMetadataIsRebuilt) {
  ListNode* head = BuildChain(20);
  heap_->set_root(head);

  // Simulate a crash that tore allocator metadata: scribble the free
  // lists and bump pointer with garbage (within arena bounds).
  RegionHeader* h = heap_->region()->header();
  h->free_lists[2].head.store(MakeTagged(7, h->arena_offset + 8 * kGranule),
                              std::memory_order_relaxed);
  h->bump_offset.store(h->arena_offset + h->arena_size,
                       std::memory_order_relaxed);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 20u);

  // Allocator fully functional again.
  for (int i = 0; i < 1000; ++i) ASSERT_NE(heap_->New<ListNode>(), nullptr);
}

TEST_F(GcTest, UnregisteredTypeIsLeaf) {
  ListNode* head = BuildChain(3);
  heap_->set_root(head);
  TypeRegistry empty;  // ListNode not registered → treated as leaf
  const GcStats stats = heap_->RunRecoveryGc(empty);
  // Only the root object is found; its children are unreachable to the
  // GC and get reclaimed. (This documents why registration matters.)
  EXPECT_EQ(stats.live_objects, 1u);
}

TEST_F(GcTest, NullAndForeignPointersIgnored) {
  ListNode* node = heap_->New<ListNode>();
  static ListNode foreign;  // static storage, not in the heap
  node->next = &foreign;
  heap_->set_root(node);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.invalid_pointers, 0u) << "out-of-region pointers are legal";
}

TEST_F(GcTest, DanglingInRegionPointerCountsInvalid) {
  ListNode* node = heap_->New<ListNode>();
  ListNode* victim = heap_->New<ListNode>();
  heap_->Free(victim);
  node->next = victim;  // dangles into a freed block
  heap_->set_root(node);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 1u);
  EXPECT_EQ(stats.invalid_pointers, 1u);
}

TEST_F(GcTest, SharedSubgraphMarkedOnce) {
  ListNode* shared = heap_->New<ListNode>();
  shared->value = 99;
  ListNode* a = heap_->New<ListNode>();
  ListNode* b = heap_->New<ListNode>();
  a->next = shared;
  b->next = shared;
  ListNode* root = heap_->New<ListNode>();
  root->next = a;
  // Build a diamond via a cycle: root -> a -> shared, b -> shared,
  // shared -> b creates a cycle to test termination.
  shared->next = b;
  heap_->set_root(root);
  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, 4u);
}

TEST_F(GcTest, RepeatedGcIsIdempotent) {
  ListNode* head = BuildChain(25);
  heap_->set_root(head);
  const TypeRegistry registry = MakeRegistry();
  const GcStats first = heap_->RunRecoveryGc(registry);
  const GcStats second = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(first.live_objects, second.live_objects);
  EXPECT_EQ(first.live_bytes, second.live_bytes);
  EXPECT_EQ(second.tail_reclaimed_bytes, 0u);
}

TEST_F(GcTest, UnregisteredTypeWarnsOncePerId) {
  FanNode* hub = NewFanNode(8 + 50 * sizeof(void*));
  for (std::uint64_t i = 0; i < hub->slot_count; ++i) {
    hub->slots[i] = heap_->New<ListNode>();
  }
  heap_->set_root(hub);
  TypeRegistry registry;  // FanNode only: the 50 ListNodes are leaves
  registry.Register<FanNode>("FanNode", TraceFanNode);

  ::testing::internal::CaptureStderr();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(stats.live_objects, 51u);

  const std::string warning = "unregistered type id 101";
  std::size_t warnings = 0;
  for (std::size_t at = log.find(warning); at != std::string::npos;
       at = log.find(warning, at + warning.size())) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u) << log;
}

// One object with more pointer slots than the mark's prefetch ring
// holds, mixing every kind of pointer the GC must sort out: valid ones
// (some repeated), nulls, out-of-region statics, a pointer into a
// freed block and misaligned interior pointers.
TEST_F(GcTest, WideObjectMixesEveryPointerKind) {
  constexpr int kSlots = 100;
  FanNode* hub = NewFanNode(8 + kSlots * sizeof(void*));
  ASSERT_EQ(hub->slot_count, static_cast<std::uint64_t>(kSlots));
  std::vector<ListNode*> leaves;
  for (int i = 0; i < 30; ++i) leaves.push_back(heap_->New<ListNode>());
  ListNode* freed = heap_->New<ListNode>();
  heap_->Free(freed);
  static ListNode foreign;

  std::vector<const void*> slots;
  for (int i = 0; i < 30; ++i) slots.push_back(leaves[i]);      // valid
  for (int i = 0; i < 20; ++i) slots.push_back(leaves[i % 7]);  // repeats
  for (int i = 0; i < 20; ++i) slots.push_back(nullptr);
  for (int i = 0; i < 10; ++i) slots.push_back(&foreign);
  for (int i = 0; i < 10; ++i) slots.push_back(freed);          // invalid
  for (int i = 0; i < 10; ++i) {                                // invalid
    slots.push_back(reinterpret_cast<const char*>(leaves[i]) + 8);
  }
  ASSERT_EQ(slots.size(), static_cast<std::size_t>(kSlots));
  Random rng(42);
  for (std::size_t i = slots.size() - 1; i > 0; --i) {
    std::swap(slots[i], slots[rng.Uniform(i + 1)]);
  }
  std::copy(slots.begin(), slots.end(), hub->slots);
  heap_->set_root(hub);

  const GcStats stats = heap_->RunRecoveryGc(MakeRegistry());
  EXPECT_EQ(stats.live_objects, 31u);
  EXPECT_EQ(stats.invalid_pointers, 20u);
}

// Property sweep: for any mix of live/garbage object sizes, GC preserves
// exactly the reachable set and the allocator stays coherent.
class GcPropertyTest : public GcTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(GcPropertyTest, RandomGraphsSurviveGc) {
  const int seed = GetParam();
  Random rng(static_cast<std::uint64_t>(seed));
  std::vector<ListNode*> all;
  for (int i = 0; i < 500; ++i) {
    ListNode* n = heap_->New<ListNode>();
    n->value = rng.Next();
    all.push_back(n);
  }
  // Random chain through a random subset.
  std::vector<ListNode*> chain;
  for (ListNode* n : all) {
    if (rng.Bernoulli(0.5)) chain.push_back(n);
  }
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    chain[i]->next = chain[i + 1];
  }
  if (!chain.empty()) {
    chain.back()->next = nullptr;
    heap_->set_root(chain.front());
  }

  std::vector<std::uint64_t> expected;
  expected.reserve(chain.size());
  for (ListNode* n : chain) expected.push_back(n->value);

  const TypeRegistry registry = MakeRegistry();
  const GcStats stats = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(stats.live_objects, chain.size());

  std::vector<std::uint64_t> actual;
  for (ListNode* n = heap_->root<ListNode>(); n != nullptr; n = n->next) {
    actual.push_back(n->value);
  }
  EXPECT_EQ(actual, expected);
}

// Pins the sweep's byte and block accounting over mixed size classes,
// a random reachable subset and a torn bump pointer.
TEST_P(GcPropertyTest, SweepAccountingAddsUp) {
  Random rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const TypeRegistry registry = MakeRegistry();
  RegionHeader* h = heap_->region()->header();
  const std::uint64_t arena_end = h->arena_offset + h->arena_size;

  // Reachable nodes with a free slot, and the next free slot of each.
  FanNode* root = NewFanNode(8192);
  std::vector<FanNode*> parents = {root};
  std::vector<std::uint64_t> next_slot = {0};
  std::uint64_t live_objects = 1;
  std::uint64_t live_bytes = Allocator::HeaderOf(root)->block_size;
  std::vector<FanNode*> garbage;
  for (int i = 0; i < 400; ++i) {
    FanNode* node = NewFanNode(8 + rng.Uniform(8192 - 8 + 1));
    if (!rng.Bernoulli(0.5) || parents.empty()) {
      garbage.push_back(node);
      continue;
    }
    const std::size_t p = rng.Uniform(parents.size());
    parents[p]->slots[next_slot[p]++] = node;
    if (next_slot[p] == parents[p]->slot_count) {
      parents[p] = parents.back();
      next_slot[p] = next_slot.back();
      parents.pop_back();
      next_slot.pop_back();
    }
    if (node->slot_count > 0) {
      parents.push_back(node);
      next_slot.push_back(0);
    }
    ++live_objects;
    live_bytes += Allocator::HeaderOf(node)->block_size;
  }
  // Some garbage is freed before the crash; the rest just leaks.
  for (std::size_t i = 0; i < garbage.size(); i += 3) heap_->Free(garbage[i]);
  heap_->set_root(root);

  // Tear the metadata as in SimulatedTornMetadataIsRebuilt.
  h->free_lists[2].head.store(MakeTagged(7, h->arena_offset + 8 * kGranule),
                              std::memory_order_relaxed);
  h->bump_offset.store(arena_end, std::memory_order_relaxed);
  const std::uint64_t bump_before =
      h->bump_offset.load(std::memory_order_relaxed);

  const GcStats stats = heap_->RunRecoveryGc(registry);
  const std::uint64_t bump_after = heap_->GetAllocatorStats().bump_offset;
  EXPECT_EQ(stats.live_objects, live_objects);
  EXPECT_EQ(stats.live_bytes, live_bytes);
  EXPECT_EQ(stats.invalid_pointers, 0u);
  EXPECT_GT(stats.free_blocks, 0u);
  EXPECT_EQ(stats.live_bytes + stats.free_bytes + stats.sliver_bytes,
            bump_after - h->arena_offset);
  EXPECT_EQ(stats.tail_reclaimed_bytes,
            std::min(bump_before, arena_end) - bump_after);

  std::uint64_t listed_blocks = 0;
  for (const auto& list : heap_->allocator()->FreeListLengths()) {
    listed_blocks += list.blocks;
  }
  EXPECT_EQ(listed_blocks, stats.free_blocks);

  const CheckReport report = CheckHeap(*heap_, registry);
  EXPECT_TRUE(report.ok) << report.ToString();

  const GcStats again = heap_->RunRecoveryGc(registry);
  EXPECT_EQ(again.live_objects, stats.live_objects);
  EXPECT_EQ(again.live_bytes, stats.live_bytes);
  EXPECT_EQ(again.free_blocks, stats.free_blocks);
  EXPECT_EQ(again.free_bytes, stats.free_bytes);
  EXPECT_EQ(again.sliver_bytes, stats.sliver_bytes);
  EXPECT_EQ(again.invalid_pointers, stats.invalid_pointers);
  EXPECT_EQ(again.tail_reclaimed_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace tsp::pheap
