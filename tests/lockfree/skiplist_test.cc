#include "lockfree/skiplist.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/flush.h"
#include "common/random.h"
#include "pheap/test_util.h"

namespace tsp::lockfree {
namespace {

using pheap::testing::ScopedRegionFile;

class SkipListTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("skiplist");
    pheap::RegionOptions options;
    options.size = 128 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    SkipListRoot* root = SkipListMap::CreateRoot(heap_.get());
    ASSERT_NE(root, nullptr);
    heap_->set_root(root);
    map_ = std::make_unique<SkipListMap>(heap_.get(), root);
  }

  void TearDown() override {
    map_.reset();
    heap_.reset();
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<SkipListMap> map_;
};

TEST_F(SkipListTest, InsertGetBasics) {
  EXPECT_FALSE(map_->Get(5).has_value());
  EXPECT_TRUE(map_->Insert(5, 50));
  EXPECT_FALSE(map_->Insert(5, 99)) << "duplicate insert rejected";
  EXPECT_EQ(map_->Get(5), 50u);
  EXPECT_EQ(map_->Validate(/*expect_no_marks=*/true), 1u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, PutUpserts) {
  EXPECT_TRUE(map_->Put(7, 70));
  EXPECT_FALSE(map_->Put(7, 71));
  EXPECT_EQ(map_->Get(7), 71u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, IncrementByUpsertsAndAdds) {
  EXPECT_EQ(map_->IncrementBy(3, 10), 10u);
  EXPECT_EQ(map_->IncrementBy(3, 5), 15u);
  EXPECT_EQ(map_->Get(3), 15u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, RemoveDeletes) {
  EXPECT_FALSE(map_->Remove(9));
  map_->Insert(9, 90);
  EXPECT_TRUE(map_->Remove(9));
  EXPECT_FALSE(map_->Get(9).has_value());
  EXPECT_FALSE(map_->Remove(9));
  EXPECT_EQ(map_->Validate(/*expect_no_marks=*/true), 0u);
  // Reinsertion works after removal.
  EXPECT_TRUE(map_->Insert(9, 91));
  EXPECT_EQ(map_->Get(9), 91u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, OrderedIteration) {
  const std::uint64_t keys[] = {42, 7, 19, 3, 100, 55};
  for (std::uint64_t k : keys) map_->Insert(k, k * 10);
  std::vector<std::uint64_t> seen;
  map_->ForEach([&](std::uint64_t k, std::uint64_t v) {
    seen.push_back(k);
    EXPECT_EQ(v, k * 10);
  });
  const std::vector<std::uint64_t> expected = {3, 7, 19, 42, 55, 100};
  EXPECT_EQ(seen, expected);
  map_->Validate(/*expect_no_marks=*/true);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, ManySequentialInsertions) {
  constexpr std::uint64_t kCount = 20000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(map_->Insert(i * 2, i));
  }
  std::uint64_t visited = 0;
  map_->ForEach([&](std::uint64_t, std::uint64_t) { ++visited; });
  EXPECT_EQ(visited, kCount);
  EXPECT_EQ(map_->Validate(true), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(map_->Get(i * 2), i);
    ASSERT_FALSE(map_->Get(i * 2 + 1).has_value());
  }
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, RandomizedAgainstStdMap) {
  Random rng(777);
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t key = rng.Uniform(500) + 1;
    switch (rng.Uniform(4)) {
      case 0: {  // insert
        const std::uint64_t value = rng.Next();
        const bool inserted = map_->Insert(key, value);
        EXPECT_EQ(inserted, reference.emplace(key, value).second);
        break;
      }
      case 1: {  // put
        const std::uint64_t value = rng.Next();
        map_->Put(key, value);
        reference[key] = value;
        break;
      }
      case 2: {  // remove
        EXPECT_EQ(map_->Remove(key), reference.erase(key) > 0);
        break;
      }
      case 3: {  // get
        const auto actual = map_->Get(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_FALSE(actual.has_value());
        } else {
          EXPECT_EQ(actual, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(map_->Validate(), reference.size());
  // Full sweep comparison.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> contents;
  map_->ForEach([&](std::uint64_t k, std::uint64_t v) {
    contents.emplace_back(k, v);
  });
  ASSERT_EQ(contents.size(), reference.size());
  auto it = reference.begin();
  for (const auto& [k, v] : contents) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, ZeroRuntimeOverheadNoFlushesNoLogs) {
  // The §4.1 claim: the non-blocking map needs no persistence actions.
  GlobalFlushStats().Reset();
  for (std::uint64_t i = 0; i < 1000; ++i) map_->IncrementBy(i % 37, 1);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 0u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, ConcurrentDisjointInserts) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ASSERT_TRUE(map_->Insert(i * kThreads + t, t));
      }
      map_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(map_->Validate(true), kThreads * kPerThread);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, ConcurrentContendedIncrements) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  constexpr std::uint64_t kKeys = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      Random rng(static_cast<std::uint64_t>(t) + 1);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        map_->IncrementBy(rng.Uniform(kKeys), 1);
      }
      map_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();
  // Total increments conserved.
  std::uint64_t total = 0;
  map_->ForEach([&](std::uint64_t, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, kThreads * kPerThread);
  map_->Validate(true);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, ConcurrentInsertRemoveChurn) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 8000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      Random rng(static_cast<std::uint64_t>(t) * 31 + 7);
      for (int i = 0; i < kIterations; ++i) {
        const std::uint64_t key = rng.Uniform(64) + 1;
        if (rng.Bernoulli(0.5)) {
          map_->Insert(key, key);
        } else {
          map_->Remove(key);
        }
      }
      map_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();
  // Whatever remains must be structurally sound and correctly valued.
  map_->ForEach([](std::uint64_t k, std::uint64_t v) { EXPECT_EQ(k, v); });
  map_->Validate();
  map_->epoch()->UnregisterCurrentThread();
}

// The tentpole stress: 8 threads hammer a small key range with a mix
// of reads, inserts and removes; at quiescence the structure must
// validate fully (all levels sorted, no marks) and agree
// with a sequential membership probe.
TEST_F(SkipListTest, MixedOpsEightThreadsKeepInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  constexpr std::uint64_t kKeyRange = 512;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      Random rng(0xABCD + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = rng.Uniform(kKeyRange) + 1;
        switch (rng.Uniform(10)) {
          case 0:
          case 1:
            map_->Insert(key, key * 1000 + t);
            break;
          case 2:
            map_->Remove(key);
            break;
          case 3:
            map_->IncrementBy(key, 1);
            break;
          default: {  // read-mostly, like the paper's workloads
            auto v = map_->Get(key);
            if (v.has_value()) {
              ASSERT_NE(*v, 0u) << "read a half-initialized node";
            }
            break;
          }
        }
      }
      map_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t count = map_->Validate(/*expect_no_marks=*/true);
  // Membership must be coherent between Get and ForEach.
  std::set<std::uint64_t> iterated;
  map_->ForEach([&](std::uint64_t k, std::uint64_t) {
    iterated.insert(k);
  });
  EXPECT_EQ(iterated.size(), count);
  for (std::uint64_t key = 1; key <= kKeyRange; ++key) {
    EXPECT_EQ(map_->Get(key).has_value(), iterated.count(key) == 1);
  }
  // The descent hint only ever grew and covers the tallest tower.
  EXPECT_GE(map_->top_level_hint(), 1);
  map_->epoch()->UnregisterCurrentThread();
}

// K towers in one heap sharing one epoch domain: per-shard operations
// stay coherent and every shard validates independently.
TEST_F(SkipListTest, ShardedRootComposesIndependentTowers) {
  constexpr std::uint32_t kShards = 4;
  ShardedSkipListRoot* sharded =
      SkipListMap::CreateShardedRoot(heap_.get(), kShards);
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count, kShards);
  EpochManager shared_epoch([this](void* p) { heap_->Free(p); });
  std::vector<std::unique_ptr<SkipListMap>> shards;
  for (std::uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(std::make_unique<SkipListMap>(
        heap_.get(), sharded->shards[i], &shared_epoch));
    EXPECT_EQ(shards.back()->epoch(), &shared_epoch);
  }
  for (std::uint64_t key = 0; key < 1000; ++key) {
    shards[key % kShards]->Insert(key, key + 1);
  }
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(shards[key % kShards]->Get(key), key + 1);
    EXPECT_FALSE(shards[(key + 1) % kShards]->Get(key).has_value());
  }
  std::uint64_t total = 0;
  for (auto& shard : shards) total += shard->Validate(true);
  EXPECT_EQ(total, 1000u);
  shared_epoch.UnregisterCurrentThread();
}

// Regression: a facade whose descent hint predates another facade's
// tall inserts must not anchor upper-level link CASes on a stale "no
// successor" head snapshot. The old Find trusted the hint blindly and
// spliced new nodes at upper levels *in front of* smaller-keyed tall
// towers (level-order inversion, fatal in Validate and a use-after-free
// seed for CleanupWalkAndRetire). Find now detects occupancy above the
// hint, self-raises, and re-descends.
TEST_F(SkipListTest, StaleHintFacadeSelfRaisesInsteadOfInverting) {
  EpochManager shared_epoch([this](void* p) { heap_->Free(p); });
  SkipListRoot* root = heap_->root<SkipListRoot>();
  SkipListMap first(heap_.get(), root, &shared_epoch);
  // Constructed against the empty list, so its hint starts at 1 and
  // goes stale while `first` grows tall towers.
  SkipListMap stale(heap_.get(), root, &shared_epoch);
  ASSERT_EQ(stale.top_level_hint(), 1);

  for (std::uint64_t key = 1; key <= 512; ++key) first.Insert(key, key);
  ASSERT_GT(first.top_level_hint(), 1) << "no tall towers; test is vacuous";

  // Keys above every existing tower: with the stale hint, the old code
  // linked any of these that drew height >= 2 directly off the head at
  // upper levels, ahead of the smaller keys.
  for (std::uint64_t key = 1000; key < 1064; ++key) {
    ASSERT_TRUE(stale.Insert(key, key));
  }
  EXPECT_EQ(stale.Validate(/*expect_no_marks=*/true), 512u + 64u);
  // The stale facade adopted every level it discovered: a fresh
  // facade's constructor-computed hint (ground truth from the head
  // tower) can't exceed it.
  SkipListMap fresh(heap_.get(), root, &shared_epoch);
  EXPECT_GE(stale.top_level_hint(), fresh.top_level_hint());
  shared_epoch.UnregisterCurrentThread();
}

TEST_F(SkipListTest, SurvivesReopenAfterCrash) {
  constexpr std::uint64_t kCount = 1000;
  for (std::uint64_t i = 0; i < kCount; ++i) map_->Insert(i, i + 1);
  map_->epoch()->UnregisterCurrentThread();

  // Crash: unmap without clean shutdown. Every store persists (kernel
  // persistence of the shared mapping).
  const std::string path = file_->path();
  map_.reset();
  heap_.reset();

  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE((*heap)->needs_recovery());
  // §4.1: no rollback needed. Recovery = GC only.
  pheap::TypeRegistry registry;
  SkipListMap::RegisterTypes(&registry);
  const pheap::GcStats stats = (*heap)->RunRecoveryGc(registry);
  EXPECT_GE(stats.live_objects, kCount + 1);
  (*heap)->FinishRecovery();

  SkipListMap reopened(heap->get(), (*heap)->root<SkipListRoot>());
  EXPECT_EQ(reopened.Validate(true), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(reopened.Get(i), i + 1);
  }
  reopened.epoch()->UnregisterCurrentThread();
}

TEST_F(SkipListTest, GcReclaimsRemovedNodes) {
  for (std::uint64_t i = 0; i < 1000; ++i) map_->Insert(i, i);
  for (std::uint64_t i = 0; i < 1000; i += 2) map_->Remove(i);
  map_->epoch()->UnregisterCurrentThread();
  const std::string path = file_->path();
  map_.reset();
  heap_.reset();

  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  pheap::TypeRegistry registry;
  SkipListMap::RegisterTypes(&registry);
  const pheap::GcStats stats = (*heap)->RunRecoveryGc(registry);
  // 500 live nodes + root + head. Removed nodes (in limbo at "crash"
  // time or already freed) are not live.
  EXPECT_EQ(stats.live_objects, 500u + 2);
  (*heap)->FinishRecovery();
  SkipListMap reopened(heap->get(), (*heap)->root<SkipListRoot>());
  EXPECT_EQ(reopened.Validate(), 500u);
  reopened.epoch()->UnregisterCurrentThread();
}

// Property sweep: random concurrent workloads with different seeds and
// thread counts keep the sum-conservation invariant.
class SkipListPropertyTest
    : public SkipListTest,
      public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(SkipListPropertyTest, IncrementSumConserved) {
  const int threads_count = std::get<0>(GetParam());
  const int seed = std::get<1>(GetParam());
  constexpr std::uint64_t kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < threads_count; ++t) {
    threads.emplace_back([this, t, seed] {
      Random rng(static_cast<std::uint64_t>(seed) * 97 + t);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        map_->IncrementBy(rng.Uniform(32), 1);
      }
      map_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  map_->ForEach([&](std::uint64_t, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(threads_count) * kPerThread);
  map_->epoch()->UnregisterCurrentThread();
}

INSTANTIATE_TEST_SUITE_P(Sweep, SkipListPropertyTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace tsp::lockfree
