#include "pheap/allocator.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "pheap/region.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

class AllocatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("alloc");
    RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto region = MappedRegion::Create(file_->path(), options);
    ASSERT_TRUE(region.ok()) << region.status().ToString();
    region_ = std::move(*region);
    allocator_ = std::make_unique<Allocator>(region_.get());
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<MappedRegion> region_;
  std::unique_ptr<Allocator> allocator_;
};

TEST_F(AllocatorTest, BlockSizeForPayloadPicksSmallestFit) {
  EXPECT_EQ(Allocator::BlockSizeForPayload(1), 32u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(16), 32u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(17), 48u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(48), 64u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(4096 - 16), 4096u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(4096), 6144u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(Allocator::MaxPayloadSize()),
            268435456u);
  EXPECT_EQ(Allocator::BlockSizeForPayload(Allocator::MaxPayloadSize() + 1),
            0u);
}

TEST_F(AllocatorTest, SizeClassOfRoundTrips) {
  for (std::size_t c = 0; c < Allocator::kNumSizeClasses; ++c) {
    const std::size_t block = Allocator::ClassBlockSize(static_cast<int>(c));
    EXPECT_EQ(Allocator::SizeClassOf(block), static_cast<int>(c));
  }
  EXPECT_EQ(Allocator::SizeClassOf(33), -1);
  EXPECT_EQ(Allocator::SizeClassOf(0), -1);
}

TEST_F(AllocatorTest, AllocReturnsAlignedDistinctBlocks) {
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = allocator_->Alloc(40, 7);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kGranule, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate allocation";
    BlockHeader* h = Allocator::HeaderOf(p);
    EXPECT_EQ(h->magic, BlockHeader::kAllocatedMagic);
    EXPECT_EQ(h->type_id, 7u);
    EXPECT_EQ(h->size(), 64u);
  }
}

TEST_F(AllocatorTest, FreeRecyclesBlock) {
  void* a = allocator_->Alloc(100, 0);
  ASSERT_NE(a, nullptr);
  allocator_->Free(a);
  EXPECT_EQ(Allocator::HeaderOf(a)->magic, BlockHeader::kFreeMagic);
  void* b = allocator_->Alloc(100, 0);
  EXPECT_EQ(a, b) << "free list should hand back the recycled block";
  EXPECT_EQ(Allocator::HeaderOf(b)->magic, BlockHeader::kAllocatedMagic);
}

TEST_F(AllocatorTest, FreeListIsLifoPerClass) {
  void* a = allocator_->Alloc(100, 0);
  void* b = allocator_->Alloc(100, 0);
  allocator_->Free(a);
  allocator_->Free(b);
  EXPECT_EQ(allocator_->Alloc(100, 0), b);
  EXPECT_EQ(allocator_->Alloc(100, 0), a);
}

TEST_F(AllocatorTest, DifferentClassesDoNotMix) {
  void* small = allocator_->Alloc(16, 0);
  allocator_->Free(small);
  void* large = allocator_->Alloc(1000, 0);
  EXPECT_NE(small, large);
}

TEST_F(AllocatorTest, StatsTrackAllocsAndFrees) {
  const AllocatorStats before = allocator_->GetStats();
  void* p = allocator_->Alloc(64, 0);
  allocator_->Free(p);
  const AllocatorStats after = allocator_->GetStats();
  EXPECT_EQ(after.total_allocs, before.total_allocs + 1);
  EXPECT_EQ(after.total_frees, before.total_frees + 1);
  EXPECT_GE(after.bump_offset, before.bump_offset);
}

TEST_F(AllocatorTest, ArenaExhaustionReturnsNull) {
  // 64 MiB region, ~62 MiB arena; 1 MiB payloads use 2 MiB blocks.
  std::vector<void*> blocks;
  for (;;) {
    void* p = allocator_->Alloc(1 << 20, 0);
    if (p == nullptr) break;
    blocks.push_back(p);
  }
  EXPECT_GT(blocks.size(), 20u);
  EXPECT_LT(blocks.size(), 40u);
  // Freeing one makes allocation possible again.
  allocator_->Free(blocks.back());
  EXPECT_NE(allocator_->Alloc(1 << 20, 0), nullptr);
}

TEST_F(AllocatorTest, PayloadSurvivesFreeOfNeighbors) {
  char* a = static_cast<char*>(allocator_->Alloc(128, 0));
  char* b = static_cast<char*>(allocator_->Alloc(128, 0));
  char* c = static_cast<char*>(allocator_->Alloc(128, 0));
  std::memset(b, 0x5A, 128);
  allocator_->Free(a);
  allocator_->Free(c);
  for (int i = 0; i < 128; ++i) ASSERT_EQ(b[i], 0x5A);
}

TEST_F(AllocatorTest, ResetMetadataClearsFreeLists) {
  void* p = allocator_->Alloc(100, 0);
  allocator_->Free(p);
  const std::uint64_t arena_offset = region_->header()->arena_offset;
  allocator_->ResetMetadata(arena_offset, /*live_objects=*/0);
  // After reset the free list is empty, so a fresh alloc bumps from the
  // arena start again.
  void* q = allocator_->Alloc(100, 0);
  EXPECT_EQ(region_->ToOffset(Allocator::HeaderOf(q)), arena_offset);
}

TEST_F(AllocatorTest, PushFreeBlockFeedsAllocation) {
  const std::uint64_t arena_offset = region_->header()->arena_offset;
  allocator_->ResetMetadata(arena_offset + 4096, /*live_objects=*/0);
  allocator_->PushFreeBlock(arena_offset, 256);
  void* p = allocator_->Alloc(200, 0);
  EXPECT_EQ(region_->ToOffset(Allocator::HeaderOf(p)), arena_offset);
}

TEST_F(AllocatorTest, ConcurrentAllocFreeKeepsBlocksDisjoint) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 4000;
  std::vector<std::vector<void*>> kept(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &kept] {
      std::vector<void*> mine;
      for (int i = 0; i < kIterations; ++i) {
        void* p = allocator_->Alloc(24 + (i % 5) * 16, 0);
        ASSERT_NE(p, nullptr);
        // Write a thread-unique pattern to detect overlap.
        std::memset(p, 0x10 + t, 24);
        mine.push_back(p);
        if (i % 3 == 0) {
          allocator_->Free(mine.front());
          mine.erase(mine.begin());
        }
      }
      kept[t] = std::move(mine);
    });
  }
  for (auto& thread : threads) thread.join();
  // Every surviving block still holds its owner's pattern.
  for (int t = 0; t < kThreads; ++t) {
    for (void* p : kept[t]) {
      const auto* bytes = static_cast<const unsigned char*>(p);
      for (int i = 0; i < 24; ++i) {
        ASSERT_EQ(bytes[i], 0x10 + t) << "cross-thread block overlap";
      }
    }
  }
}

using AllocatorDeathTest = AllocatorTest;

TEST_F(AllocatorDeathTest, DoubleFreeIsFatal) {
#ifdef GTEST_FLAG_SET
  GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
  void* p = allocator_->Alloc(64, 0);
  allocator_->Free(p);
  // The threadsafe style reruns the fixture in a child that dies before
  // its ScopedRegionFile unlinks the child's own heap file, so the
  // child unlinks it first; the mapping outlives the name.
  EXPECT_DEATH(
      {
        ::unlink(file_->path().c_str());
        allocator_->Free(p);
      },
      "unallocated or corrupt");
}

}  // namespace
}  // namespace tsp::pheap
