// Per-thread magazine layer tests: hit paths, batch refill/drain,
// remote-free routing, thread-exit drains, GC epoch invalidation, and
// an ABA stress for the batch pop. The crash-injection counterpart
// (magazines vs SIGKILL) lives in tests/pheap/alloc_crash_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
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

TEST_F(MagazineTest, CapacityIsClamped) {
  allocator_->set_magazine_capacity(1);
  EXPECT_EQ(allocator_->magazine_capacity(), 2u);
  allocator_->set_magazine_capacity(100000);
  EXPECT_EQ(allocator_->magazine_capacity(),
            static_cast<std::uint32_t>(Allocator::kMagazineCapacity));
  allocator_->set_magazine_capacity(8);
  EXPECT_EQ(allocator_->magazine_capacity(), 8u);
}

TEST_F(MagazineTest, OverfullMagazineDrainsInBatch) {
  allocator_->set_magazine_capacity(4);
  // Allocate more blocks than a magazine holds, then free them all:
  // the excess must drain to the shared free list in chains.
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(allocator_->Alloc(48, 0));
  for (void* p : blocks) allocator_->Free(p);
  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_GT(stats.drain_batches, 0u);
  EXPECT_GT(SharedFreeListBlocks(*allocator_), 0u);
}

TEST_F(MagazineTest, RemoteFreeRoutesToOwnerInboxAndIsReclaimed) {
  // Exactly two full carve batches, so the owner's magazine is EMPTY
  // after the allocation loop and the re-allocation below can only be
  // served by reclaiming the inbox.
  constexpr int kBlocks = 32;
  std::vector<void*> blocks;
  for (int i = 0; i < kBlocks; ++i) {
    void* p = allocator_->Alloc(48, 0);
    ASSERT_NE(p, nullptr);
    blocks.push_back(p);
  }
  // Another thread frees this thread's blocks: each free is one push
  // onto this thread's inbox, not a shared free-list CAS.
  std::thread freer([&] {
    for (void* p : blocks) allocator_->Free(p);
    // The freer thread's own exit drain must not steal the inbox.
  });
  freer.join();
  AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.remote_frees, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.remote_reclaims, 0u);

  // The owner's next refill reclaims the whole inbox chain at once.
  std::vector<void*> again;
  for (int i = 0; i < kBlocks; ++i) again.push_back(allocator_->Alloc(48, 0));
  stats = allocator_->GetStats();
  EXPECT_EQ(stats.remote_reclaims, static_cast<std::uint64_t>(kBlocks));
  // Reclaimed blocks are recycled, not newly carved: the same offsets
  // come back (as a set; order is not part of the contract).
  std::sort(blocks.begin(), blocks.end());
  std::sort(again.begin(), again.end());
  EXPECT_EQ(blocks, again);
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
// burst-free the same size class with a small magazine, so the shared
// list is constantly batch-popped while other threads drain chains onto
// it and write patterns over the popped payloads. A batch pop that
// trusted a torn next link (the classic Treiber ABA window) would hand
// one block to two threads, and the pattern check below would catch the
// stomp.
TEST_F(MagazineTest, BatchPopAbaStressKeepsBlocksDisjoint) {
  constexpr int kThreads = 4;
  constexpr int kBursts = 2000;
  constexpr int kBurst = 16;  // 2x capacity: every burst crosses the
                              // magazine boundary in both directions
  allocator_->set_magazine_capacity(8);

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<unsigned char*> mine;
      for (int burst = 0; burst < kBursts && !failed.load(); ++burst) {
        for (int i = 0; i < kBurst; ++i) {
          auto* p = static_cast<unsigned char*>(allocator_->Alloc(48, 0));
          if (p == nullptr) {
            failed.store(true);
            break;
          }
          std::memset(p, 0x40 + t, 48);
          mine.push_back(p);
        }
        for (unsigned char* q : mine) {
          for (int b = 0; b < 48; ++b) {
            if (q[b] != 0x40 + t) {
              failed.store(true);
              ADD_FAILURE() << "block contents stomped: double allocation";
              break;
            }
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

// Producer/consumer across threads: every block is freed remotely, so
// the remote inbox, its lazy reclaim, and the owner-tag routing run
// under real concurrency.
TEST_F(MagazineTest, ProducerConsumerRemoteFreeStress) {
  constexpr int kBlocks = 20000;
  constexpr std::size_t kRing = 256;
  std::atomic<void*> ring[kRing] = {};
  std::atomic<bool> done{false};

  std::thread consumer([&] {
    int freed = 0;
    std::size_t i = 0;
    while (freed < kBlocks) {
      void* p = ring[i % kRing].exchange(nullptr, std::memory_order_acquire);
      if (p != nullptr) {
        allocator_->Free(p);
        ++freed;
      }
      ++i;
    }
    done.store(true);
  });
  std::thread producer([&] {
    int produced = 0;
    std::size_t i = 0;
    while (produced < kBlocks) {
      void* p = allocator_->Alloc(48, 0);
      ASSERT_NE(p, nullptr);
      std::memset(p, 0x77, 48);
      while (ring[i % kRing].load(std::memory_order_relaxed) != nullptr) {
        ++i;
      }
      ring[i % kRing].store(p, std::memory_order_release);
      ++produced;
      ++i;
    }
  });
  producer.join();
  consumer.join();

  const AllocatorStats stats = allocator_->GetStats();
  EXPECT_EQ(stats.total_allocs, static_cast<std::uint64_t>(kBlocks));
  EXPECT_EQ(stats.total_frees, static_cast<std::uint64_t>(kBlocks));
  EXPECT_GT(stats.remote_frees, 0u) << "consumer frees should route to the "
                                       "producer's inbox";
  EXPECT_GT(stats.remote_reclaims, 0u);
  const CheckReport report = CheckHeap(*heap_, TypeRegistry());
  EXPECT_TRUE(report.problems.empty()) << report.ToString();
}

TEST_F(MagazineTest, OwnerTagPackingRoundTrips) {
  const std::uint64_t packed = BlockHeader::PackSize(4096, 17);
  BlockHeader header{};
  header.block_size = packed;
  EXPECT_EQ(header.size(), 4096u);
  EXPECT_EQ(header.owner_tag(), 17u);
  // Allocated blocks carry the allocating cache's tag; frees clear it.
  void* p = allocator_->Alloc(48, 0);
  EXPECT_NE(Allocator::HeaderOf(p)->owner_tag(), 0u);
  EXPECT_EQ(Allocator::HeaderOf(p)->size(), 64u);
  allocator_->Free(p);
  EXPECT_EQ(Allocator::HeaderOf(p)->owner_tag(), 0u);
}

}  // namespace
}  // namespace tsp::pheap
