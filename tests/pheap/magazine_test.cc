// Per-thread magazine layer tests: hit paths, batch refill/drain,
// cross-thread frees, thread-exit drains, GC epoch invalidation, the
// shared-path counters, and an ABA stress for the batch pop. The
// crash-injection counterpart (magazines vs SIGKILL) lives in
// tests/pheap/alloc_crash_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "pheap/check.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

class MagazineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("magazine");
    RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    allocator_ = heap_->allocator();
  }

  static std::uint64_t SharedFreeListBlocks(const Allocator& allocator) {
    std::uint64_t total = 0;
    for (const auto& list : allocator.FreeListLengths()) {
      total += list.blocks;
    }
    return total;
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<PersistentHeap> heap_;
  Allocator* allocator_ = nullptr;
};

TEST_F(MagazineTest, ChurnIsServedFromMagazinesNotSharedLines) {
  constexpr int kOps = 10000;
  void* p = nullptr;
  for (int i = 0; i < kOps; ++i) {
    p = allocator_->Alloc(48, 0);
    ASSERT_NE(p, nullptr);
    allocator_->Free(p);
  }
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.total_allocs, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.total_frees, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.magazine_allocs, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.magazine_frees, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.shared_allocs, 0u);
  EXPECT_EQ(stats.shared_frees, 0u);
  // Same-block churn stays inside the magazine: one carve to prime it,
  // then no shared-structure traffic at all.
  EXPECT_EQ(stats.carve_batches, 1u);
  EXPECT_EQ(stats.refill_batches, 0u);
  EXPECT_EQ(stats.drain_batches, 0u);
}

TEST_F(MagazineTest, BaselineToggleRestoresSharedPath) {
  allocator_->set_magazines_enabled(false);
  constexpr int kOps = 100;
  for (int i = 0; i < kOps; ++i) {
    void* p = allocator_->Alloc(48, 0);
    ASSERT_NE(p, nullptr);
    allocator_->Free(p);
  }
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.total_allocs, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.magazine_allocs, 0u);
  EXPECT_EQ(stats.magazine_frees, 0u);
  EXPECT_EQ(stats.shared_allocs, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.shared_frees, static_cast<std::uint64_t>(kOps));
}

TEST_F(MagazineTest, LargeClassesBypassMagazines) {
  void* p = allocator_->Alloc(64 * 1024, 0);  // way past the 4 KiB cutoff
  ASSERT_NE(p, nullptr);
  allocator_->Free(p);
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.magazine_allocs, 0u);
  EXPECT_EQ(stats.shared_allocs, 1u);
  EXPECT_EQ(stats.shared_frees, 1u);
}

TEST_F(MagazineTest, OverfullMagazineDrainsInBatch) {
  // Two magazines' worth of blocks, then free them all: the first
  // kMagazineCapacity frees fill the magazine, and each later overflow
  // drains the older half to the shared list as one chain.
  constexpr std::size_t kCapacity = Allocator::kMagazineCapacity;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < 2 * kCapacity; ++i) {
    blocks.push_back(allocator_->Alloc(48, 0));
  }
  for (void* p : blocks) allocator_->Free(p);
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.drain_batches, 2u);
  EXPECT_EQ(SharedFreeListBlocks(*allocator_), kCapacity);
  EXPECT_EQ(stats.shared_frees, 0u);
}

// Every thread that allocates gets a magazine, however many are alive
// at once: 80 threads each hold a block until all of them have one, so
// no cache is retired and reused under the count.
TEST_F(MagazineTest, EveryLiveThreadGetsAMagazine) {
  constexpr int kThreads = 80;
  std::atomic<int> holding{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      void* p = allocator_->Alloc(48, 0);
      EXPECT_NE(p, nullptr);
      holding.fetch_add(1);
      while (holding.load() < kThreads) std::this_thread::yield();
      if (p != nullptr) allocator_->Free(p);
    });
  }
  for (auto& thread : threads) thread.join();
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.magazine_allocs, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.magazine_frees, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.shared_allocs, 0u);
  EXPECT_EQ(stats.shared_frees, 0u);
}

// The shared-path counters are this process's operations, not derived
// from the file's lifetime totals: a reopened heap whose first session
// ran entirely through magazines reports no shared operations.
TEST_F(MagazineTest, ReopenedHeapCountsNoEarlierSharedOperations) {
  constexpr int kOps = 1000;
  for (int i = 0; i < kOps; ++i) allocator_->Free(allocator_->Alloc(48, 0));
  heap_->CloseClean();
  heap_.reset();
  for (const bool read_only : {false, true}) {
    auto heap = read_only ? PersistentHeap::OpenReadOnly(file_->path())
                          : PersistentHeap::Open(file_->path());
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    const AllocatorStats stats = (*heap)->GetAllocatorStats();
    EXPECT_EQ(stats.total_allocs, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(stats.total_frees, static_cast<std::uint64_t>(kOps));
    EXPECT_EQ(stats.shared_allocs, 0u) << "read_only=" << read_only;
    EXPECT_EQ(stats.shared_frees, 0u) << "read_only=" << read_only;
    if (!read_only) (*heap)->CloseClean();
  }
}

TEST_F(MagazineTest, ThreadExitDrainsParkedBlocksToSharedLists) {
  std::thread worker([&] {
    std::vector<void*> blocks;
    for (int i = 0; i < 32; ++i) blocks.push_back(allocator_->Alloc(48, 0));
    for (void* p : blocks) allocator_->Free(p);
    // No explicit flush: the TLS destructor must drain on exit.
  });
  worker.join();
  EXPECT_GE(SharedFreeListBlocks(*allocator_), 32u);
  const CheckReport report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.unaccounted_bytes, 0u)
      << "an exited thread must leave nothing parked";
}

TEST_F(MagazineTest, CheckHeapToleratesParkedBlocksUntilFlush) {
  void* p = allocator_->Alloc(48, 0);
  allocator_->Free(p);  // parked in this thread's magazine
  CheckReport report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.ok) << "parked blocks are unaccounted, not corrupt: "
                         << report.ToString();
  EXPECT_GT(report.unaccounted_bytes, 0u);

  allocator_->FlushCurrentThreadCache();
  report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.unaccounted_bytes, 0u);
}

TEST_F(MagazineTest, GcEpochBumpDiscardsStaleMagazines) {
  // Park blocks, then run a recovery GC (which rebuilds all metadata):
  // the magazine must notice the epoch change and discard — reusing the
  // stale offsets could double-allocate rebuilt free blocks.
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(allocator_->Alloc(48, 0));
  for (void* p : blocks) allocator_->Free(p);

  heap_->set_root(nullptr);
  heap_->RunRecoveryGc(TypeRegistry());

  std::set<void*> seen;
  for (int i = 0; i < 64; ++i) {
    void* p = allocator_->Alloc(48, 0);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(seen.insert(p).second) << "double allocation after GC";
    std::memset(p, 0xAB, 48);
  }
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_GE(stats.magazine_discards, 1u);
  const CheckReport report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.problems.empty()) << report.ToString();
}

TEST_F(MagazineTest, FlushedStatsSurviveCacheRetirement) {
  constexpr int kOps = 100;
  for (int i = 0; i < kOps; ++i) allocator_->Free(allocator_->Alloc(48, 0));
  allocator_->FlushCurrentThreadCache();
  // Counters must not reset when the cache retires (they fold into the
  // header / retired residue).
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.total_allocs, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.total_frees, static_cast<std::uint64_t>(kOps));
  EXPECT_EQ(stats.magazine_allocs, static_cast<std::uint64_t>(kOps));
}

// ABA regression for the batch pop: four threads burst-allocate and
// burst-free the same size class, so the shared list is constantly
// batch-popped while other threads drain chains onto it and write
// patterns over the popped payloads. A batch pop that trusted a torn
// next link (the classic Treiber ABA window) would hand one block to
// two threads, and the pattern check below would catch the stomp.
TEST_F(MagazineTest, BatchPopAbaStressKeepsBlocksDisjoint) {
  constexpr int kThreads = 4;
  constexpr int kBursts = 1000;
  // Two magazines' worth: every burst crosses the magazine boundary in
  // both directions.
  constexpr int kBurst = 2 * static_cast<int>(Allocator::kMagazineCapacity);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      unsigned char pattern[48];
      std::memset(pattern, 0x40 + t, sizeof(pattern));
      std::vector<unsigned char*> mine;
      for (int burst = 0; burst < kBursts && !failed.load(); ++burst) {
        for (int i = 0; i < kBurst; ++i) {
          auto* p = static_cast<unsigned char*>(allocator_->Alloc(48, 0));
          if (p == nullptr) {
            failed.store(true);
            break;
          }
          std::memcpy(p, pattern, sizeof(pattern));
          mine.push_back(p);
        }
        for (unsigned char* q : mine) {
          if (std::memcmp(q, pattern, sizeof(pattern)) != 0) {
            failed.store(true);
            ADD_FAILURE() << "block contents stomped: double allocation";
          }
          allocator_->Free(q);
        }
        mine.clear();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_GT(stats.refill_batches, 0u) << "stress never hit the batch pop";
  const CheckReport report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.problems.empty()) << report.ToString();
}

// Producer/consumer across threads: every block is freed by a thread
// that did not allocate it. The consumer's frees fill its own magazine,
// its drains push them to the shared list, and the producer's refills
// pop them back, so the producer recycles blocks instead of carving new
// ones. Each block carries its sequence number; the consumer checks the
// number is intact and seen once, so a block handed out twice shows.
TEST_F(MagazineTest, ProducerConsumerRemoteFreeStress) {
  constexpr std::uint64_t kBlocks = 20000;
  constexpr std::size_t kRing = 256;
  constexpr std::size_t kWords = 48 / sizeof(std::uint64_t);
  std::atomic<void*> ring[kRing] = {};
  std::vector<bool> seen(kBlocks, false);

  std::thread consumer([&] {
    std::uint64_t freed = 0;
    std::size_t i = 0;
    while (freed < kBlocks) {
      void* p = ring[i % kRing].exchange(nullptr, std::memory_order_acquire);
      if (p != nullptr) {
        const auto* words = static_cast<const std::uint64_t*>(p);
        const std::uint64_t sequence = words[0];
        bool intact = sequence < kBlocks && !seen[sequence];
        for (std::size_t w = 1; w < kWords; ++w) {
          intact = intact && words[w] == ~sequence;
        }
        EXPECT_TRUE(intact) << "block contents stomped: double allocation";
        if (sequence < kBlocks) seen[sequence] = true;
        allocator_->Free(p);
        ++freed;
      }
      ++i;
    }
  });
  std::thread producer([&] {
    std::size_t i = 0;
    for (std::uint64_t sequence = 0; sequence < kBlocks; ++sequence) {
      auto* words = static_cast<std::uint64_t*>(allocator_->Alloc(48, 0));
      ASSERT_NE(words, nullptr);
      words[0] = sequence;
      for (std::size_t w = 1; w < kWords; ++w) words[w] = ~sequence;
      while (ring[i % kRing].load(std::memory_order_relaxed) != nullptr) {
        ++i;
      }
      ring[i % kRing].store(words, std::memory_order_release);
      ++i;
    }
  });
  producer.join();
  consumer.join();

  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.total_allocs, kBlocks);
  EXPECT_EQ(stats.total_frees, kBlocks);
  EXPECT_EQ(stats.shared_allocs, 0u);
  EXPECT_EQ(stats.shared_frees, 0u);
  EXPECT_GT(stats.drain_batches, 0u) << "the consumer never drained";
  EXPECT_GT(stats.refill_batches, 0u) << "the producer never popped a batch";
  // At most the ring, two magazines and a batch in flight are ever out
  // at once, so the producer carves a small fraction of what it hands
  // out and the rest comes back through the shared list.
  const std::uint64_t carved =
      stats.carve_batches * (Allocator::kMagazineCapacity / 2);
  EXPECT_LT(carved, kBlocks / 10) << "frees did not reach the producer";
  const CheckReport report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.problems.empty()) << report.ToString();
}

}  // namespace
}  // namespace tsp::pheap
