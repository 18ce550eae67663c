#include "pheap/region.h"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

RegionOptions SmallOptions() {
  RegionOptions options;
  options.size = 32 * 1024 * 1024;
  options.runtime_area_size = 1 * 1024 * 1024;
  return options;
}

TEST(RegionTest, CreateFormatsHeader) {
  ScopedRegionFile file("create");
  auto region = MappedRegion::Create(file.path(), SmallOptions());
  ASSERT_TRUE(region.ok()) << region.status().ToString();

  RegionHeader* h = (*region)->header();
  EXPECT_EQ(h->magic, kRegionMagic);
  EXPECT_EQ(h->version, kLayoutVersion);
  ASSERT_LT(h->address_slot, AddressSlotAllocator::kSlotCount);
  EXPECT_EQ(h->address_slot, (*region)->address_slot());
  const std::uintptr_t base =
      AddressSlotAllocator::AddressOf(h->address_slot);
  EXPECT_EQ(h->base_address, base);
  EXPECT_EQ(h->region_size, 32u * 1024 * 1024);
  EXPECT_EQ(h->runtime_area_offset, kHeaderSize);
  EXPECT_EQ(h->arena_offset, h->runtime_area_offset + h->runtime_area_size);
  EXPECT_EQ(h->arena_offset + h->arena_size, h->region_size);
  EXPECT_EQ(h->generation.load(), 1u);
  EXPECT_EQ(h->root_offset.load(), 0u);
  EXPECT_EQ(h->bump_offset.load(), h->arena_offset);
  EXPECT_FALSE((*region)->opened_after_crash());
  EXPECT_EQ((*region)->base(), reinterpret_cast<void*>(base));
}

TEST(RegionTest, CreateRejectsExistingFile) {
  ScopedRegionFile file("exists");
  auto first = MappedRegion::Create(file.path(), SmallOptions());
  ASSERT_TRUE(first.ok());
  auto second = MappedRegion::Create(file.path(), SmallOptions());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

TEST(RegionTest, CreateRejectsTinyRegion) {
  ScopedRegionFile file("tiny");
  RegionOptions options = SmallOptions();
  options.size = 64 * 1024;
  auto region = MappedRegion::Create(file.path(), options);
  EXPECT_EQ(region.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegionTest, OpenMissingFileIsNotFound) {
  auto region = MappedRegion::Open("/dev/shm/tsp_test_no_such_file.heap");
  EXPECT_EQ(region.status().code(), StatusCode::kNotFound);
}

TEST(RegionTest, OpenRejectsNonRegionFile) {
  ScopedRegionFile file("garbage");
  {
    std::ofstream out(file.path(), std::ios::binary);
    std::string junk(8192, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  auto region = MappedRegion::Open(file.path());
  EXPECT_EQ(region.status().code(), StatusCode::kCorruption);
}

TEST(RegionTest, DataSurvivesReopenAtSameAddress) {
  ScopedRegionFile file("reopen");
  void* base = nullptr;
  char* stored_at = nullptr;
  {
    auto region = MappedRegion::Create(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    base = (*region)->base();
    RegionHeader* h = (*region)->header();
    stored_at = static_cast<char*>((*region)->FromOffset(h->arena_offset));
    std::memcpy(stored_at, "procrastination beats prevention", 33);
    (*region)->MarkCleanShutdown();
  }
  {
    auto region = MappedRegion::Open(file.path());
    ASSERT_TRUE(region.ok()) << region.status().ToString();
    EXPECT_EQ((*region)->base(), base);
    EXPECT_FALSE((*region)->opened_after_crash());
    EXPECT_STREQ(stored_at, "procrastination beats prevention");
    EXPECT_EQ((*region)->header()->generation.load(), 2u);
  }
}

TEST(RegionTest, UncleanShutdownIsDetected) {
  ScopedRegionFile file("unclean");
  {
    auto region = MappedRegion::Create(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    // Destroyed without MarkCleanShutdown — indistinguishable from a
    // crash as far as the file is concerned.
  }
  {
    auto region = MappedRegion::Open(file.path());
    ASSERT_TRUE(region.ok());
    EXPECT_TRUE((*region)->opened_after_crash());
    (*region)->MarkCleanShutdown();
  }
  {
    auto region = MappedRegion::Open(file.path());
    ASSERT_TRUE(region.ok());
    EXPECT_FALSE((*region)->opened_after_crash());
  }
}

// The one placement conflict left: a region records the lowest slot
// free when it is created, so two regions created one after the other
// (the first closed in between) record the same slot and cannot be
// open together. The second open is refused instead of remapping the
// live region's range.
TEST(RegionTest, FixedAddressConflictIsReported) {
  ScopedRegionFile file_a("conflict_a");
  ScopedRegionFile file_b("conflict_b");
  std::uint32_t slot_a = 0;
  {
    auto a = MappedRegion::Create(file_a.path(), SmallOptions());
    ASSERT_TRUE(a.ok());
    slot_a = (*a)->address_slot();
    (*a)->MarkCleanShutdown();
  }
  auto b = MappedRegion::Create(file_b.path(), SmallOptions());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->address_slot(), slot_a);

  auto a = MappedRegion::Open(file_a.path());
  ASSERT_FALSE(a.ok());
  EXPECT_EQ(a.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(a.status().message().find("no silent clobber"), std::string::npos)
      << a.status().ToString();

  b->reset();
  auto reopened = MappedRegion::Open(file_a.path());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->address_slot(), slot_a);
}

// Rewrites a closed region's recorded placement in place.
void PatchPlacement(const std::string& path, std::uint32_t slot,
                    std::uint64_t base) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(::pwrite(fd, &slot, sizeof(slot),
                     offsetof(RegionHeader, address_slot)),
            static_cast<ssize_t>(sizeof(slot)));
  EXPECT_EQ(::pwrite(fd, &base, sizeof(base),
                     offsetof(RegionHeader, base_address)),
            static_cast<ssize_t>(sizeof(base)));
  ::close(fd);
}

// Every open applies one placement check: the recorded slot must lie
// in this build's window and the recorded base must be that slot's
// address in this build. A heap made by a build with another slot
// window fails it (modelled here by editing the header), and Open,
// Attach and OpenReadOnly all refuse it before mapping anything.
TEST(RegionTest, EveryOpenRefusesAPlacementOutsideThisBuildsWindow) {
  ScopedRegionFile file("placement");
  const std::uint32_t held = AddressSlotAllocator::Instance().held_count();
  std::uint32_t slot = 0;
  {
    auto region = MappedRegion::Create(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    slot = (*region)->address_slot();
    (*region)->MarkCleanShutdown();
  }
  const std::uint64_t base = AddressSlotAllocator::AddressOf(slot);
  struct Placement {
    std::uint32_t slot;
    std::uint64_t base;
  };
  const Placement refused[] = {
      {AddressSlotAllocator::kSlotCount, base},  // past the window
      {0xFFFFFFFFu, base},  // what a caller-chosen address recorded
      {slot, base + AddressSlotAllocator::kSlotStride},  // another slot's
      {slot, base + 4096},                               // no slot's
  };
  for (const Placement& placement : refused) {
    PatchPlacement(file.path(), placement.slot, placement.base);
    char recorded[32];
    std::snprintf(recorded, sizeof(recorded), "0x%" PRIx64, placement.base);
    for (const auto open : {&MappedRegion::Open, &MappedRegion::Attach,
                            &MappedRegion::OpenReadOnly}) {
      const Status status = open(file.path(), nullptr).status();
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
          << status.ToString();
      EXPECT_NE(status.message().find(recorded), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find("this build maps slot"),
                std::string::npos)
          << status.ToString();
    }
  }
  EXPECT_EQ(AddressSlotAllocator::Instance().held_count(), held)
      << "a refused open must not keep a slot";

  PatchPlacement(file.path(), slot, base);
  auto region = MappedRegion::Open(file.path());
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_EQ((*region)->base(), reinterpret_cast<void*>(base));
}

TEST(RegionTest, OffsetConversionRoundTrips) {
  ScopedRegionFile file("offsets");
  auto region = MappedRegion::Create(file.path(), SmallOptions());
  ASSERT_TRUE(region.ok());
  void* p = (*region)->FromOffset(12345 * kGranule);
  EXPECT_EQ((*region)->ToOffset(p), 12345 * kGranule);
  EXPECT_TRUE((*region)->Contains(p));
  EXPECT_FALSE((*region)->Contains(&file));
}

TEST(RegionTest, OpenOrCreateBothPaths) {
  ScopedRegionFile file("openorcreate");
  {
    auto region = MappedRegion::OpenOrCreate(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->header()->generation.load(), 1u);
  }
  {
    auto region = MappedRegion::OpenOrCreate(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    EXPECT_EQ((*region)->header()->generation.load(), 2u);
  }
}

TEST(RegionTest, SyncToBackingSucceeds) {
  ScopedRegionFile file("msync");
  auto region = MappedRegion::Create(file.path(), SmallOptions());
  ASSERT_TRUE(region.ok());
  std::memset((*region)->FromOffset((*region)->header()->arena_offset), 0xAB,
              4096);
  EXPECT_TRUE((*region)->SyncToBacking().ok());
}

TEST(RegionTest, ReadOnlyOpenDoesNotPerturbState) {
  ScopedRegionFile file("readonly");
  char* stored_at = nullptr;
  {
    auto region = MappedRegion::Create(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    stored_at = static_cast<char*>(
        (*region)->FromOffset((*region)->header()->arena_offset));
    std::memcpy(stored_at, "inspect me", 11);
    (*region)->MarkCleanShutdown();
  }
  {
    auto region = MappedRegion::OpenReadOnly(file.path());
    ASSERT_TRUE(region.ok()) << region.status().ToString();
    EXPECT_TRUE((*region)->read_only());
    EXPECT_FALSE((*region)->opened_after_crash());
    EXPECT_STREQ(stored_at, "inspect me");
    EXPECT_EQ((*region)->header()->generation.load(), 1u)
        << "read-only open must not bump the generation";
    EXPECT_EQ((*region)->header()->clean_shutdown.load(), 1u)
        << "read-only open must not clear the clean flag";
  }
  // A real open afterwards still sees the clean shutdown.
  auto region = MappedRegion::Open(file.path());
  ASSERT_TRUE(region.ok());
  EXPECT_FALSE((*region)->opened_after_crash());
}

TEST(RegionTest, ReadOnlyOpenSeesCrashFlag) {
  ScopedRegionFile file("readonly_crash");
  {
    auto region = MappedRegion::Create(file.path(), SmallOptions());
    ASSERT_TRUE(region.ok());
    // destroyed unclean
  }
  auto region = MappedRegion::OpenReadOnly(file.path());
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE((*region)->opened_after_crash());
}

TEST(RegionTest, ReadOnlyOpenMissingOrGarbageFiles) {
  EXPECT_EQ(MappedRegion::OpenReadOnly("/dev/shm/tsp_no_such.heap")
                .status()
                .code(),
            StatusCode::kNotFound);
  ScopedRegionFile file("readonly_garbage");
  {
    std::ofstream out(file.path(), std::ios::binary);
    std::string junk(8192, 'z');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_EQ(MappedRegion::OpenReadOnly(file.path()).status().code(),
            StatusCode::kCorruption);
}

TEST(TaggedOffsetTest, PackAndUnpack) {
  const TaggedOffset t = MakeTagged(0xBEEF, 0x123456789ABCull);
  EXPECT_EQ(TagOf(t), 0xBEEF);
  EXPECT_EQ(OffsetOf(t), 0x123456789ABCull);
  EXPECT_EQ(OffsetOf(MakeTagged(0xFFFF, 0)), 0u);
}

}  // namespace
}  // namespace tsp::pheap
