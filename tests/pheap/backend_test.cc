// Copyright 2026 The TSP Authors.
// RegionBackend implementations: the anonymous crash/reopen cycle,
// mapping-conflict diagnostics, and the
// no-silent-clobber / retry-at-next-slot behavior of region open/create
// on top of them.

#include "pheap/backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "pheap/address_slots.h"
#include "pheap/heap.h"
#include "pheap/region.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

RegionOptions SmallRegion(std::shared_ptr<RegionBackend> backend = nullptr) {
  RegionOptions options;
  options.size = 8 * 1024 * 1024;
  options.runtime_area_size = 1024 * 1024;
  options.backend = std::move(backend);
  return options;
}

TEST(BackendTest, BackendNamesAreStable) {
  EXPECT_STREQ(PosixFileBackend().name(), "posix-file");
  EXPECT_STREQ(AnonTestBackend().name(), "anon-test");
}

// The AnonTestBackend's whole purpose: crash/reopen cycles with no
// filesystem. The image lives in the backend instance, so the same
// shared_ptr must be reused across opens.
TEST(BackendTest, AnonBackendSurvivesCrashReopenCycle) {
  auto backend = std::make_shared<AnonTestBackend>();
  std::uint64_t* array = nullptr;
  {
    auto heap =
        PersistentHeap::Create("anon:cycle", SmallRegion(backend));
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    array = static_cast<std::uint64_t*>((*heap)->Alloc(64));
    ASSERT_NE(array, nullptr);
    for (int i = 0; i < 8; ++i) array[i] = 0xC0FFEE00u + i;
    (*heap)->set_root(array);
    // crash: destroy without CloseClean
  }
  {
    auto heap = PersistentHeap::Open("anon:cycle", backend);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    EXPECT_TRUE((*heap)->needs_recovery());
    auto* reopened = (*heap)->root<std::uint64_t>();
    ASSERT_NE(reopened, nullptr);
    EXPECT_EQ(reopened, array) << "pointer stability across reopen";
    for (int i = 0; i < 8; ++i) EXPECT_EQ(reopened[i], 0xC0FFEE00u + i);
    (*heap)->CloseClean();
  }
  {
    auto heap = PersistentHeap::Open("anon:cycle", backend);
    ASSERT_TRUE(heap.ok());
    EXPECT_FALSE((*heap)->needs_recovery());
  }
  EXPECT_TRUE(backend->Remove("anon:cycle").ok());
}

TEST(BackendTest, AnonBackendDistinctStoresAreIndependent) {
  auto backend = std::make_shared<AnonTestBackend>();
  auto a = PersistentHeap::Create("anon:a", SmallRegion(backend));
  auto b = PersistentHeap::Create("anon:b", SmallRegion(backend));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_NE((*a)->region()->base(), (*b)->region()->base());
  EXPECT_NE((*a)->region()->address_slot(),
            (*b)->region()->address_slot());
}

TEST(BackendTest, DescribeMappingConflictNamesTheOccupant) {
  // The test binary's own code segment definitely occupies its range.
  const std::uintptr_t here =
      reinterpret_cast<std::uintptr_t>(&DescribeMappingConflict) &
      ~static_cast<std::uintptr_t>(4095);
  const std::string described = DescribeMappingConflict(here, 4096);
  EXPECT_NE(described.find("overlaps"), std::string::npos) << described;
  // A hole: a free address slot, which nothing in this process maps
  // whatever the build's slot window and sanitizer runtime.
  AddressSlotAllocator& slots = AddressSlotAllocator::Instance();
  auto free_slot = slots.Acquire(4096);
  ASSERT_TRUE(free_slot.ok()) << free_slot.status().ToString();
  slots.Release(*free_slot);
  EXPECT_EQ(
      DescribeMappingConflict(AddressSlotAllocator::AddressOf(*free_slot),
                              4096),
      "");
}

// Opening the same region file twice in one process must fail with a
// diagnostic, never remap (clobber) the live region.
TEST(BackendTest, DoubleOpenIsRefusedNoSilentClobber) {
  ScopedRegionFile file("dblopen");
  auto first = PersistentHeap::Create(file.path(), SmallRegion());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = PersistentHeap::Open(file.path());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(second.status().message().find("no silent clobber"),
            std::string::npos)
      << second.status().ToString();
}

// A foreign mapping in a free slot's range (here a backend mapped
// without the slot allocator): mapping over it fails with the occupant
// named, and region creation skips that slot, quarantined for the rest
// of the process, for the next free one.
TEST(BackendTest, CreateConflictDiagnosesAndAutoPlacementRetries) {
  const std::size_t size = SmallRegion().size;
  AddressSlotAllocator& slots = AddressSlotAllocator::Instance();
  auto lowest = slots.Acquire(size);
  ASSERT_TRUE(lowest.ok()) << lowest.status().ToString();
  slots.Release(*lowest);
  const std::uintptr_t taken = AddressSlotAllocator::AddressOf(*lowest);
  AnonTestBackend foreign;
  auto occupant = foreign.CreateAndMap("anon:occupant", size, taken);
  ASSERT_TRUE(occupant.ok()) << occupant.status().ToString();

  AnonTestBackend clasher;
  auto conflict = clasher.CreateAndMap("anon:clasher", size, taken);
  ASSERT_FALSE(conflict.ok());
  EXPECT_EQ(conflict.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(conflict.status().message().find("overlaps"), std::string::npos)
      << conflict.status().ToString();

  ScopedRegionFile fresh("fresh");
  auto placed = PersistentHeap::Create(fresh.path(), SmallRegion());
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  EXPECT_NE((*placed)->region()->address_slot(), *lowest);
  foreign.Unmap(*occupant, size);

  ScopedRegionFile later("later");
  auto next = PersistentHeap::Create(later.path(), SmallRegion());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_NE((*next)->region()->address_slot(), *lowest)
      << "a quarantined slot is never reissued";
}

}  // namespace
}  // namespace tsp::pheap
