#include "lockfree/hashmap.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/flush.h"
#include "common/random.h"
#include "pheap/test_util.h"
#include "pheap/type_registry.h"

namespace tsp::lockfree {
namespace {

using pheap::testing::ScopedRegionFile;

class HashMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("lfhash");
    pheap::RegionOptions options;
    options.size = 128 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    LockFreeHashRoot* root =
        LockFreeHashMap::CreateRoot(heap_.get(), 1 << 10);
    ASSERT_NE(root, nullptr);
    heap_->set_root(root);
    map_ = std::make_unique<LockFreeHashMap>(heap_.get(), root);
  }

  void TearDown() override {
    map_.reset();
    heap_.reset();
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<LockFreeHashMap> map_;
};

TEST_F(HashMapTest, InsertGetBasics) {
  EXPECT_FALSE(map_->Get(5).has_value());
  EXPECT_TRUE(map_->Insert(5, 50));
  EXPECT_FALSE(map_->Insert(5, 99)) << "duplicate insert rejected";
  EXPECT_EQ(map_->Get(5), 50u);
  EXPECT_TRUE(map_->Contains(5));
  EXPECT_EQ(map_->Validate(/*expect_no_marks=*/true), 1u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, PutUpserts) {
  EXPECT_TRUE(map_->Put(7, 70));
  EXPECT_FALSE(map_->Put(7, 71));
  EXPECT_EQ(map_->Get(7), 71u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, IncrementByUpsertsAndAdds) {
  EXPECT_EQ(map_->IncrementBy(3, 10), 10u);
  EXPECT_EQ(map_->IncrementBy(3, 5), 15u);
  EXPECT_EQ(map_->Get(3), 15u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, RemoveDeletes) {
  EXPECT_FALSE(map_->Remove(9));
  map_->Insert(9, 90);
  EXPECT_TRUE(map_->Remove(9));
  EXPECT_FALSE(map_->Get(9).has_value());
  EXPECT_FALSE(map_->Remove(9));
  EXPECT_EQ(map_->Validate(/*expect_no_marks=*/true), 0u);
  EXPECT_TRUE(map_->Insert(9, 91));
  EXPECT_EQ(map_->Get(9), 91u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, BucketCountRoundsUpToPowerOfTwo) {
  LockFreeHashRoot* root = LockFreeHashMap::CreateRoot(heap_.get(), 1000);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->bucket_count, 1024u);
  EXPECT_EQ(root->reserved, 0u);
}

TEST_F(HashMapTest, CollidingKeysShareChainsCorrectly) {
  // Tiny table: 4 buckets, many keys — every chain is long and ordered.
  LockFreeHashRoot* root = LockFreeHashMap::CreateRoot(heap_.get(), 4);
  ASSERT_NE(root, nullptr);
  LockFreeHashMap map(heap_.get(), root);
  constexpr std::uint64_t kCount = 2000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(map.Insert(i, i * 3 + 1));
  }
  EXPECT_EQ(map.Validate(/*expect_no_marks=*/true), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(map.Get(i), i * 3 + 1);
  }
  for (std::uint64_t i = 0; i < kCount; i += 2) {
    ASSERT_TRUE(map.Remove(i));
  }
  EXPECT_EQ(map.Validate(true), kCount / 2);
  map.epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, ForEachVisitsLiveEntries) {
  for (std::uint64_t k : {42u, 7u, 19u, 3u}) map_->Insert(k, k * 10);
  map_->Remove(19);
  std::map<std::uint64_t, std::uint64_t> seen;
  map_->ForEach([&](std::uint64_t k, std::uint64_t v) { seen[k] = v; });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[42], 420u);
  EXPECT_EQ(seen.count(19), 0u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, RandomizedAgainstStdMap) {
  Random rng(4242);
  std::map<std::uint64_t, std::uint64_t> reference;
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t key = rng.Uniform(500) + 1;
    switch (rng.Uniform(4)) {
      case 0: {
        const std::uint64_t value = rng.Next() | 1;
        const bool inserted = map_->Insert(key, value);
        EXPECT_EQ(inserted, reference.emplace(key, value).second);
        break;
      }
      case 1: {
        const std::uint64_t value = rng.Next() | 1;
        map_->Put(key, value);
        reference[key] = value;
        break;
      }
      case 2: {
        EXPECT_EQ(map_->Remove(key), reference.erase(key) == 1);
        break;
      }
      default: {
        const auto it = reference.find(key);
        const auto got = map_->Get(key);
        if (it == reference.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          EXPECT_EQ(got, it->second);
        }
        break;
      }
    }
  }
  std::map<std::uint64_t, std::uint64_t> contents;
  map_->ForEach([&](std::uint64_t k, std::uint64_t v) { contents[k] = v; });
  EXPECT_EQ(contents, reference);
  EXPECT_EQ(map_->Validate(true), reference.size());
  map_->epoch()->UnregisterCurrentThread();
}

// §4.1's zero-overhead claim, hash-map edition: no flushes, no Atlas
// log traffic — just stores and CASes.
TEST_F(HashMapTest, ZeroRuntimeOverheadNoFlushes) {
  GlobalFlushStats().Reset();
  for (std::uint64_t i = 0; i < 1000; ++i) map_->Put(i, i);
  for (std::uint64_t i = 0; i < 1000; i += 3) map_->Remove(i);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 0u);
  map_->epoch()->UnregisterCurrentThread();
}

TEST_F(HashMapTest, MixedOpsEightThreadsKeepInvariants) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 15000;
  constexpr std::uint64_t kKeyRange = 512;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      Random rng(0x5EED + t);
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
          default: {
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
  std::set<std::uint64_t> iterated;
  map_->ForEach([&](std::uint64_t k, std::uint64_t) { iterated.insert(k); });
  EXPECT_EQ(iterated.size(), count);
  for (std::uint64_t key = 1; key <= kKeyRange; ++key) {
    EXPECT_EQ(map_->Get(key).has_value(), iterated.count(key) == 1);
  }
  map_->epoch()->UnregisterCurrentThread();
}

// The root header is written once, by CreateRoot; operations write
// only bucket words and nodes. Inserts outnumber removes here, so an
// element counter in the header could not keep its CreateRoot value.
TEST_F(HashMapTest, OperationsNeverWriteTheRootHeader) {
  LockFreeHashRoot* root = LockFreeHashMap::CreateRoot(heap_.get(), 1 << 10);
  ASSERT_NE(root, nullptr);
  constexpr std::size_t kHeaderBytes = offsetof(LockFreeHashRoot, buckets);
  unsigned char created[kHeaderBytes];
  std::memcpy(created, root, kHeaderBytes);

  LockFreeHashMap map(heap_.get(), root);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&map, t] {
      Random rng(0x4EAD + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = rng.Uniform(4096) + 1;
        switch (rng.Uniform(8)) {
          case 0:
          case 1:
          case 2:
            map.Put(key, key);
            break;
          case 3:
            map.IncrementBy(key, 1);
            break;
          case 4:
            map.Remove(key);
            break;
          default:
            map.Get(key);
            break;
        }
      }
      map.epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_GT(map.Validate(/*expect_no_marks=*/true), 0u)
      << "inserts and removes cancelled out";
  EXPECT_EQ(std::memcmp(created, root, kHeaderBytes), 0)
      << "an operation wrote the root header";
  map.epoch()->UnregisterCurrentThread();
}

// Publish-before-link means a heap snapshot at any instant is
// consistent: "crash" by closing without draining limbo, reopen, run
// the recovery GC (which must sweep leaked limbo nodes), and validate.
TEST_F(HashMapTest, SurvivesReopenAfterCrash) {
  for (std::uint64_t i = 0; i < 5000; ++i) map_->Put(i, i + 1);
  for (std::uint64_t i = 0; i < 5000; i += 2) map_->Remove(i);
  map_->epoch()->UnregisterCurrentThread();
  const std::string path = file_->path();
  map_.reset();
  heap_.reset();

  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  pheap::TypeRegistry registry;
  LockFreeHashMap::RegisterTypes(&registry);
  const pheap::GcStats stats = (*heap)->RunRecoveryGc(registry);
  // 2500 live nodes + the root (bucket array). Removed nodes — whether
  // freed, in limbo, or still marked-but-linked at "crash" time — are
  // either swept or skipped by the marked-next trace.
  EXPECT_LE(stats.live_objects, 2500u + 1 + 2500u);
  EXPECT_EQ(stats.invalid_pointers, 0u);
  (*heap)->FinishRecovery();
  LockFreeHashMap reopened(heap->get(),
                           (*heap)->root<LockFreeHashRoot>());
  EXPECT_EQ(reopened.Validate(), 2500u);
  for (std::uint64_t i = 1; i < 5000; i += 2) {
    ASSERT_EQ(reopened.Get(i), i + 1);
  }
  reopened.epoch()->UnregisterCurrentThread();
}

}  // namespace
}  // namespace tsp::lockfree
