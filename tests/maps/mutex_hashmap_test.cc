#include "maps/mutex_hashmap.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "atlas/recovery.h"
#include "common/flush.h"
#include "common/random.h"
#include "pheap/test_util.h"

namespace tsp::maps {
namespace {

using pheap::testing::ScopedRegionFile;

enum class Mode { kNative, kLogOnly, kLogFlush };

class MutexHashMapTest : public ::testing::TestWithParam<Mode> {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("hashmap");
    pheap::RegionOptions region_options;
    region_options.size = 128 * 1024 * 1024;
    region_options.runtime_area_size = 8 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), region_options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);

    if (GetParam() != Mode::kNative) {
      runtime_ = std::make_unique<atlas::AtlasRuntime>(heap_.get(), Policy());
      ASSERT_TRUE(runtime_->Initialize().ok());
    }

    options_.bucket_count = 4096;
    options_.buckets_per_lock = 1000;
    root_ = MutexHashMap::CreateRoot(heap_.get(), options_);
    ASSERT_NE(root_, nullptr);
    heap_->set_root(root_);
    map_ = std::make_unique<MutexHashMap>(heap_.get(), root_, runtime_.get(),
                                          options_);
  }

  PersistencePolicy Policy() const {
    return GetParam() == Mode::kLogOnly ? PersistencePolicy::TspLogOnly()
                                        : PersistencePolicy::SyncFlush();
  }

  void TearDown() override {
    if (map_ != nullptr) map_->OnThreadExit();
    map_.reset();
    runtime_.reset();
    heap_.reset();
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<atlas::AtlasRuntime> runtime_;
  MutexHashMap::Options options_;
  HashMapRoot* root_ = nullptr;
  std::unique_ptr<MutexHashMap> map_;
};

TEST_P(MutexHashMapTest, PutGetRoundTrip) {
  EXPECT_FALSE(map_->Get(1).has_value());
  map_->Put(1, 100);
  EXPECT_EQ(map_->Get(1), 100u);
  map_->Put(1, 200);
  EXPECT_EQ(map_->Get(1), 200u);
}

TEST_P(MutexHashMapTest, IncrementByUpserts) {
  EXPECT_EQ(map_->IncrementBy(55, 7), 7u);
  EXPECT_EQ(map_->IncrementBy(55, 3), 10u);
  EXPECT_EQ(map_->Get(55), 10u);
}

TEST_P(MutexHashMapTest, RemoveWorks) {
  EXPECT_FALSE(map_->Remove(9));
  map_->Put(9, 90);
  EXPECT_TRUE(map_->Remove(9));
  EXPECT_FALSE(map_->Get(9).has_value());
  // Reinsert after removal.
  map_->Put(9, 91);
  EXPECT_EQ(map_->Get(9), 91u);
}

TEST_P(MutexHashMapTest, CollidingKeysChainCorrectly) {
  // Many keys in few buckets force chaining.
  MutexHashMap::Options options;
  options.bucket_count = 4;
  options.buckets_per_lock = 2;
  HashMapRoot* root = MutexHashMap::CreateRoot(heap_.get(), options);
  ASSERT_NE(root, nullptr);
  MutexHashMap small(heap_.get(), root, runtime_.get(), options);
  EXPECT_EQ(small.lock_count(), 2u);
  for (std::uint64_t k = 0; k < 200; ++k) small.Put(k, k * k);
  for (std::uint64_t k = 0; k < 200; ++k) ASSERT_EQ(small.Get(k), k * k);
  for (std::uint64_t k = 0; k < 200; k += 2) ASSERT_TRUE(small.Remove(k));
  for (std::uint64_t k = 0; k < 200; ++k) {
    if (k % 2 == 0) {
      ASSERT_FALSE(small.Get(k).has_value());
    } else {
      ASSERT_EQ(small.Get(k), k * k);
    }
  }
}

// Buckets are masked and stripes come from a reciprocal: the bucket
// count rounds up to a power of two, the stripes still cover it in
// buckets_per_lock runs, and a stripe wider than the map is one lock.
TEST_P(MutexHashMapTest, BucketCountRoundsUpToAPowerOfTwo) {
  for (const std::uint64_t buckets_per_lock : {100u, 4096u}) {
    MutexHashMap::Options options;
    options.bucket_count = 1000;
    options.buckets_per_lock = buckets_per_lock;
    HashMapRoot* root = MutexHashMap::CreateRoot(heap_.get(), options);
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->buckets->bucket_count, 1024u);
    MutexHashMap map(heap_.get(), root, runtime_.get(), options);
    EXPECT_EQ(map.bucket_count(), 1024u);
    EXPECT_EQ(map.lock_count(), buckets_per_lock == 100u ? 11u : 1u);
    for (std::uint64_t k = 0; k < 3000; ++k) map.Put(k, k + 1);
    std::uint64_t visited = 0;
    map.ForEach([&visited](std::uint64_t k, std::uint64_t v) {
      EXPECT_EQ(v, k + 1);
      ++visited;
    });
    EXPECT_EQ(visited, 3000u);
  }
}

TEST_P(MutexHashMapTest, ForEachVisitsEverything) {
  std::map<std::uint64_t, std::uint64_t> reference;
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t k = rng.Uniform(500);
    const std::uint64_t v = rng.Next();
    map_->Put(k, v);
    reference[k] = v;
  }
  std::map<std::uint64_t, std::uint64_t> seen;
  map_->ForEach([&](std::uint64_t k, std::uint64_t v) {
    EXPECT_TRUE(seen.emplace(k, v).second) << "duplicate key visited";
  });
  EXPECT_EQ(seen, reference);
}

TEST_P(MutexHashMapTest, RandomizedAgainstStdMap) {
  std::map<std::uint64_t, std::uint64_t> reference;
  Random rng(99);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = rng.Uniform(300);
    switch (rng.Uniform(4)) {
      case 0:
        map_->Put(key, i);
        reference[key] = static_cast<std::uint64_t>(i);
        break;
      case 1: {
        const auto it = reference.find(key);
        const auto got = map_->Get(key);
        if (it == reference.end()) {
          ASSERT_FALSE(got.has_value());
        } else {
          ASSERT_EQ(got, it->second);
        }
        break;
      }
      case 2: {
        const std::uint64_t expected =
            (reference.count(key) ? reference[key] : 0) + 3;
        ASSERT_EQ(map_->IncrementBy(key, 3), expected);
        reference[key] = expected;
        break;
      }
      case 3:
        ASSERT_EQ(map_->Remove(key), reference.erase(key) > 0);
        break;
    }
  }
}

TEST_P(MutexHashMapTest, ConcurrentMixedWorkloadConservesSums) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      Random rng(static_cast<std::uint64_t>(t) + 11);
      for (int i = 0; i < kIncrements; ++i) {
        map_->IncrementBy(rng.Uniform(64), 1);
      }
      map_->OnThreadExit();
    });
  }
  for (auto& thread : threads) thread.join();
  std::uint64_t total = 0;
  map_->ForEach([&](std::uint64_t, std::uint64_t v) { total += v; });
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_P(MutexHashMapTest, FlushBehaviorMatchesMode) {
  GlobalFlushStats().Reset();
  for (std::uint64_t i = 0; i < 200; ++i) map_->Put(i, i);
  const std::uint64_t flushed = GlobalFlushStats().lines_flushed.load();
  switch (GetParam()) {
    case Mode::kNative:
    case Mode::kLogOnly:
      EXPECT_EQ(flushed, 0u) << "TSP/native modes never flush";
      break;
    case Mode::kLogFlush:
      EXPECT_GT(flushed, 200u) << "non-TSP mode flushes per log entry";
      break;
  }
}

TEST_P(MutexHashMapTest, DataSurvivesCleanReopen) {
  for (std::uint64_t i = 0; i < 500; ++i) map_->Put(i, i + 7);
  map_->OnThreadExit();
  const std::string path = file_->path();
  map_.reset();
  runtime_.reset();
  heap_->CloseClean();
  heap_.reset();

  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  EXPECT_FALSE((*heap)->needs_recovery());
  auto* root = (*heap)->root<HashMapRoot>();
  MutexHashMap reopened(heap->get(), root, nullptr, options_);
  for (std::uint64_t i = 0; i < 500; ++i) ASSERT_EQ(reopened.Get(i), i + 7);
}

TEST_P(MutexHashMapTest, GcKeepsMapReachableAndReclaimsRemoved) {
  for (std::uint64_t i = 0; i < 300; ++i) map_->Put(i, i);
  for (std::uint64_t i = 0; i < 300; i += 3) map_->Remove(i);
  if (runtime_ != nullptr) runtime_->StabilizeNow();  // apply deferred frees
  map_->OnThreadExit();
  const std::string path = file_->path();
  map_.reset();
  runtime_.reset();
  heap_.reset();  // crash

  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  pheap::TypeRegistry registry;
  MutexHashMap::RegisterTypes(&registry);
  auto recovery = atlas::RecoverHeap(heap->get(), registry);
  ASSERT_TRUE(recovery.ok());
  // 200 live entries + bucket array + root.
  EXPECT_EQ(recovery->gc.live_objects, 200u + 2);

  MutexHashMap reopened(heap->get(), (*heap)->root<HashMapRoot>(), nullptr,
                        options_);
  for (std::uint64_t i = 0; i < 300; ++i) {
    if (i % 3 == 0) {
      ASSERT_FALSE(reopened.Get(i).has_value());
    } else {
      ASSERT_EQ(reopened.Get(i), i);
    }
  }
}

// The chain entry that holds `key`, or null.
const HashEntry* EntryOf(const HashMapRoot* root, std::uint64_t key) {
  for (std::uint64_t b = 0; b < root->buckets->bucket_count; ++b) {
    for (const HashEntry* entry = root->buckets->buckets[b];
         entry != nullptr; entry = entry->next) {
      if (entry->key == key) return entry;
    }
  }
  return nullptr;
}

// A Remove on one thread has no dependency and a stable predecessor, so
// its OCS is stable at release: it takes the fast commit and frees the
// unlinked entry right there, into the thread's own magazine, and the
// next Put on the thread gets that very block. The runtime runs no
// thread of its own, so nothing else could have freed it.
TEST_P(MutexHashMapTest, RemoveFreesItsEntryAtCommit) {
  map_->Put(9, 90);
  const HashEntry* removed = EntryOf(root_, 9);
  ASSERT_NE(removed, nullptr);
  ASSERT_TRUE(map_->Remove(9));
  if (runtime_ != nullptr) {
    const atlas::AtlasRuntimeStats stats = runtime_->GetStats();
    EXPECT_EQ(stats.published_commits, 0u);
    EXPECT_EQ(stats.fast_path_commits, stats.ocses_committed);
    EXPECT_EQ(runtime_->stability()->PendingCount(), 0u);
  }
  map_->Put(10, 100);
  EXPECT_EQ(EntryOf(root_, 10), removed)
      << "the removed entry's block should be the next one allocated";
  EXPECT_EQ(map_->Get(10), 100u);
  EXPECT_FALSE(map_->Get(9).has_value());
}

INSTANTIATE_TEST_SUITE_P(Modes, MutexHashMapTest,
                         ::testing::Values(Mode::kNative, Mode::kLogOnly,
                                           Mode::kLogFlush),
                         [](const auto& info) {
                           switch (info.param) {
                             case Mode::kNative:
                               return "Native";
                             case Mode::kLogOnly:
                               return "LogOnly";
                             case Mode::kLogFlush:
                               return "LogFlush";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace tsp::maps
