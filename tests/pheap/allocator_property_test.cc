// Property tests for the persistent allocator: long random alloc/free
// interleavings checked against an independent shadow model, with the
// heap checker as a structural oracle after every phase.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/random.h"
#include "pheap/check.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

struct Shadow {
  std::size_t size;
  std::uint8_t fill;
};

class AllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorPropertyTest, RandomOpsAgainstShadowModel) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  ScopedRegionFile file("alloc_prop");
  RegionOptions options;
  options.size = 128 * 1024 * 1024;
  options.runtime_area_size = 1 * 1024 * 1024;
  auto heap_or = PersistentHeap::Create(file.path(), options);
  ASSERT_TRUE(heap_or.ok());
  auto heap = std::move(*heap_or);

  Random rng(seed * 7919 + 3);
  std::map<void*, Shadow> live;
  std::uint8_t next_fill = 1;

  for (int op = 0; op < 6000; ++op) {
    const bool do_alloc = live.empty() || rng.Bernoulli(0.6);
    if (do_alloc) {
      // Size mix: mostly small, occasionally large.
      std::size_t size;
      switch (rng.Uniform(4)) {
        case 0:
          size = 1 + rng.Uniform(64);
          break;
        case 1:
          size = 1 + rng.Uniform(1024);
          break;
        case 2:
          size = 1 + rng.Uniform(16 * 1024);
          break;
        default:
          size = 1 + rng.Uniform(512 * 1024);
          break;
      }
      void* p = heap->Alloc(size, 0);
      ASSERT_NE(p, nullptr);
      // No overlap with any live allocation.
      const auto upper = live.upper_bound(p);
      if (upper != live.end()) {
        ASSERT_LE(static_cast<char*>(p) + size,
                  static_cast<char*>(upper->first))
            << "new block overlaps a successor";
      }
      if (upper != live.begin()) {
        const auto prev = std::prev(upper);
        ASSERT_LE(static_cast<char*>(prev->first) + prev->second.size,
                  static_cast<char*>(p))
            << "new block overlaps a predecessor";
      }
      const std::uint8_t fill = next_fill++;
      if (next_fill == 0) next_fill = 1;
      std::memset(p, fill, size);
      live.emplace(p, Shadow{size, fill});
    } else {
      // Free a pseudo-random live block after verifying its contents.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Uniform(live.size())));
      const auto* bytes = static_cast<const std::uint8_t*>(it->first);
      for (std::size_t i = 0; i < it->second.size; i += 97) {
        ASSERT_EQ(bytes[i], it->second.fill)
            << "allocation contents corrupted before free";
      }
      heap->Free(it->first);
      live.erase(it);
    }
  }

  // Survivors intact.
  for (const auto& [p, shadow] : live) {
    const auto* bytes = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < shadow.size; i += 61) {
      ASSERT_EQ(bytes[i], shadow.fill);
    }
  }

  // Structural oracle: thread survivors into a list reachable from the
  // root is unnecessary — the checker flags free-list damage and
  // live/free overlap regardless (live-but-unreachable blocks show up
  // as unaccounted bytes, which is legal).
  TypeRegistry registry;
  const CheckReport report = CheckHeap(*heap, registry);
  EXPECT_TRUE(report.problems.empty()) << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Range(0, 6));

TEST(AllocatorReuseTest, FreedMemoryIsFullyRecycledWithinClasses) {
  ScopedRegionFile file("alloc_reuse");
  RegionOptions options;
  options.size = 64 * 1024 * 1024;
  options.runtime_area_size = 1 * 1024 * 1024;
  auto heap = std::move(PersistentHeap::Create(file.path(), options)).value();

  // Steady-state churn in one size class must not consume new arena.
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(heap->Alloc(200, 0));
  const std::uint64_t bump_before = heap->GetAllocatorStats().bump_offset;
  for (int round = 0; round < 1000; ++round) {
    heap->Free(blocks.back());
    blocks.pop_back();
    blocks.push_back(heap->Alloc(200, 0));
  }
  EXPECT_EQ(heap->GetAllocatorStats().bump_offset, bump_before)
      << "same-class churn must be served from free lists";
}

}  // namespace
}  // namespace tsp::pheap
