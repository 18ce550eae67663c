// Integration: one persistent heap hosting every data structure the
// library ships — mutex hash map (Atlas-logged), lock-free skip list,
// lock-free queue, PVector, PString — all hanging off one composite
// root. Work on all of them concurrently, crash, recover (Atlas
// rollback + one GC over the whole object graph), and verify each
// structure independently. This is the "downstream application" shape:
// heterogeneous persistent state with a single recovery pipeline.

#include <gtest/gtest.h>

#include <thread>

#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "common/random.h"
#include "lockfree/queue.h"
#include "lockfree/skiplist.h"
#include "maps/mutex_hashmap.h"
#include "pheap/containers.h"
#include "pheap/check.h"
#include "pheap/test_util.h"

namespace tsp {
namespace {

using pheap::testing::ScopedRegionFile;

struct CompositeRoot {
  static constexpr std::uint32_t kPersistentTypeId = 0x434F4D50;  // "COMP"
  maps::HashMapRoot* hashmap;
  lockfree::SkipListRoot* skiplist;
  lockfree::QueueRoot* queue;
  pheap::PVector<std::uint64_t>* vector;
  pheap::PString* name;
};

pheap::TypeRegistry MakeRegistry() {
  pheap::TypeRegistry registry;
  registry.Register(pheap::TypeInfo{
      CompositeRoot::kPersistentTypeId, "CompositeRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        const auto* root = static_cast<const CompositeRoot*>(payload);
        visit(root->hashmap);
        visit(root->skiplist);
        visit(root->queue);
        visit(root->vector);
        visit(root->name);
      }});
  maps::MutexHashMap::RegisterTypes(&registry);
  lockfree::SkipListMap::RegisterTypes(&registry);
  lockfree::LockFreeQueue::RegisterTypes(&registry);
  pheap::PVector<std::uint64_t>::RegisterType(&registry);
  pheap::PString::RegisterType(&registry);
  return registry;
}

TEST(MultiStructureTest, EverythingSurvivesCrashOnOneHeap) {
  ScopedRegionFile file("multi");
  pheap::RegionOptions options;
  options.size = 256 * 1024 * 1024;
  options.runtime_area_size = 8 * 1024 * 1024;
  const maps::MutexHashMap::Options hash_options;

  constexpr std::uint64_t kMapKeys = 2000;
  constexpr std::uint64_t kSkipKeys = 1500;
  constexpr std::uint64_t kQueueItems = 800;

  // --- session 1: populate everything, then crash mid-OCS ---
  {
    auto heap =
        std::move(pheap::PersistentHeap::Create(file.path(), options))
            .value();
    auto* root = heap->New<CompositeRoot>();
    root->hashmap = maps::MutexHashMap::CreateRoot(heap.get(), hash_options);
    root->skiplist = lockfree::SkipListMap::CreateRoot(heap.get());
    root->queue = lockfree::LockFreeQueue::CreateRoot(heap.get());
    root->vector = pheap::PVector<std::uint64_t>::Create(heap.get(), 64);
    root->name = pheap::PString::Create(heap.get(), 64);
    heap->set_root(root);

    atlas::AtlasRuntime runtime(heap.get(),
                                PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime.Initialize().ok());
    maps::MutexHashMap hashmap(heap.get(), root->hashmap, &runtime,
                               hash_options);
    lockfree::SkipListMap skiplist(heap.get(), root->skiplist);
    lockfree::LockFreeQueue queue(heap.get(), root->queue);

    // Concurrent population of the two lock-free structures while the
    // main thread drives the logged hash map.
    std::thread skip_thread([&] {
      for (std::uint64_t i = 0; i < kSkipKeys; ++i) {
        skiplist.Insert(i, i * 2);
      }
      skiplist.epoch()->UnregisterCurrentThread();
    });
    std::thread queue_thread([&] {
      for (std::uint64_t i = 1; i <= kQueueItems; ++i) queue.Enqueue(i);
      queue.epoch()->UnregisterCurrentThread();
    });
    for (std::uint64_t i = 0; i < kMapKeys; ++i) hashmap.Put(i, i + 7);
    skip_thread.join();
    queue_thread.join();

    for (std::uint64_t i = 0; i < 10; ++i) root->vector->push_back(i * i);
    root->name->Assign("composite heap");

    // Crash inside a hash-map OCS: the interrupted Put must roll back.
    atlas::AtlasThread* thread = runtime.CurrentThread();
    atlas::PLockWord word;
    thread->OnAcquire(&word, 99);
    thread->Store(&root->vector->operator[](0), std::uint64_t{0xDEAD});
    // destroy everything without clean shutdown (mid-OCS: a crash)
  }

  // --- session 2: one recovery pipeline for the whole heap ---
  auto heap =
      std::move(pheap::PersistentHeap::Open(file.path())).value();
  ASSERT_TRUE(heap->needs_recovery());
  const pheap::TypeRegistry registry = MakeRegistry();
  auto recovery = atlas::RecoverHeap(heap.get(), registry);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->atlas.ocses_incomplete, 1u);
  EXPECT_EQ(recovery->atlas.stores_undone, 1u);

  auto* root = heap->root<CompositeRoot>();
  ASSERT_NE(root, nullptr);

  // Hash map: every committed Put present.
  maps::MutexHashMap hashmap(heap.get(), root->hashmap, nullptr,
                             hash_options);
  for (std::uint64_t i = 0; i < kMapKeys; ++i) {
    ASSERT_EQ(hashmap.Get(i), i + 7);
  }

  // Skip list: structurally valid, fully populated.
  lockfree::SkipListMap skiplist(heap.get(), root->skiplist);
  EXPECT_EQ(skiplist.Validate(true), kSkipKeys);
  for (std::uint64_t i = 0; i < kSkipKeys; ++i) {
    ASSERT_EQ(skiplist.Get(i), i * 2);
  }
  skiplist.epoch()->UnregisterCurrentThread();

  // Queue: FIFO intact.
  {
    lockfree::LockFreeQueue queue(heap.get(), root->queue);
    EXPECT_EQ(queue.Validate(), kQueueItems);
    for (std::uint64_t i = 1; i <= 5; ++i) ASSERT_EQ(queue.Dequeue(), i);
    queue.epoch()->UnregisterCurrentThread();
  }

  // Containers: the crashed OCS's store to vector[0] was rolled back.
  EXPECT_EQ(root->vector->size(), 10u);
  EXPECT_EQ((*root->vector)[0], 0u) << "interrupted store rolled back";
  for (std::uint64_t i = 1; i < 10; ++i) {
    EXPECT_EQ((*root->vector)[i], i * i);
  }
  EXPECT_EQ(root->name->view(), "composite heap");

  // The whole heap is coherent.
  const pheap::CheckReport report = pheap::CheckHeap(*heap, registry);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_GT(report.reachable_objects,
            kMapKeys + kSkipKeys + kQueueItems);
  heap->CloseClean();
}

}  // namespace
}  // namespace tsp
