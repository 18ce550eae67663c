#include "atlas/log_layout.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tsp::atlas {
namespace {

TEST(PackingTest, ThreadOcsRoundTrips) {
  const std::uint64_t packed = PackThreadOcs(17, 123456789);
  EXPECT_EQ(UnpackThread(packed), 17);
  EXPECT_EQ(UnpackOcs(packed), 123456789u);
  EXPECT_EQ(PackThreadOcs(0, 0), 0u);
  const std::uint64_t max = PackThreadOcs(0xFFFF, (1ULL << 48) - 1);
  EXPECT_EQ(UnpackThread(max), 0xFFFF);
  EXPECT_EQ(UnpackOcs(max), (1ULL << 48) - 1);
}

TEST(AtlasAreaTest, FormatAndValidate) {
  std::vector<char> buffer(1 << 20);
  const std::uint64_t entries =
      AtlasArea::Format(buffer.data(), buffer.size(), 8);
  ASSERT_GT(entries, 0u);
  EXPECT_TRUE(AtlasArea::Validate(buffer.data(), buffer.size()));

  AtlasArea area(buffer.data(), buffer.size());
  EXPECT_EQ(area.max_threads(), 8u);
  EXPECT_EQ(area.entries_per_thread(), entries);
  // The whole layout fits: 8 rings of `entries` 32-byte entries.
  EXPECT_LE(area.header()->entries_offset + 8 * entries * sizeof(LogEntry),
            buffer.size());
}

TEST(AtlasAreaTest, FormatWritesCurrentVersionWithCounterSlots) {
  std::vector<char> buffer(1 << 20);
  ASSERT_GT(AtlasArea::Format(buffer.data(), buffer.size(), 8), 0u);
  AtlasArea area(buffer.data(), buffer.size());
  EXPECT_EQ(area.header()->version, kAtlasFormatVersion);
  EXPECT_TRUE(AtlasArea::Check(buffer.data(), buffer.size()).ok());
  // A 1 MB area has room for the counter-slot carve-out.
  EXPECT_EQ(area.counter_slots_per_thread(), kDefaultCounterSlotsPerThread);
  EXPECT_NE(area.header()->counter_slots_offset, 0u);
}

TEST(AtlasAreaTest, PreviousVersionIsRefused) {
  // One format version, one reader: an area stamped with the previous
  // version is refused, with a diagnostic that names both versions.
  std::vector<char> buffer(1 << 20);
  ASSERT_GT(AtlasArea::Format(buffer.data(), buffer.size(), 8), 0u);
  AtlasArea area(buffer.data(), buffer.size());
  area.header()->version = kAtlasFormatVersion - 1;
  EXPECT_FALSE(AtlasArea::Validate(buffer.data(), buffer.size()));
  const Status status = AtlasArea::Check(buffer.data(), buffer.size());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find(
                "format version " + std::to_string(kAtlasFormatVersion - 1)),
            std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find(
                "only version " + std::to_string(kAtlasFormatVersion)),
            std::string::npos)
      << status.message();
}

TEST(AtlasAreaTest, NewerVersionIsRejectedButIdentified) {
  // Areas written by a newer producer may have moved the layout, so
  // validation must refuse them — and the diagnostic names the version
  // mismatch instead of calling the area corrupt geometry.
  std::vector<char> buffer(1 << 20);
  ASSERT_GT(AtlasArea::Format(buffer.data(), buffer.size(), 8), 0u);
  AtlasArea area(buffer.data(), buffer.size());
  area.header()->version = kAtlasFormatVersion + 1;
  EXPECT_FALSE(AtlasArea::Validate(buffer.data(), buffer.size()));
  EXPECT_NE(AtlasArea::Check(buffer.data(), buffer.size())
                .message()
                .find("format version " +
                      std::to_string(kAtlasFormatVersion + 1)),
            std::string::npos);
  // Garbage, by contrast, is not an Atlas area at all.
  std::vector<char> garbage(1 << 20, 0x5A);
  EXPECT_EQ(AtlasArea::Check(garbage.data(), garbage.size()).code(),
            StatusCode::kNotFound);
}

TEST(AtlasAreaTest, TooSmallAreaFails) {
  std::vector<char> buffer(256);
  EXPECT_EQ(AtlasArea::Format(buffer.data(), buffer.size(), 64), 0u);
}

TEST(AtlasAreaTest, ValidateRejectsGarbage) {
  std::vector<char> buffer(1 << 20, 0x5A);
  EXPECT_FALSE(AtlasArea::Validate(buffer.data(), buffer.size()));
  std::vector<char> zeros(1 << 20, 0);
  EXPECT_FALSE(AtlasArea::Validate(zeros.data(), zeros.size()));
}

TEST(AtlasAreaTest, ValidateRejectsTruncatedArea) {
  std::vector<char> buffer(1 << 20);
  ASSERT_GT(AtlasArea::Format(buffer.data(), buffer.size(), 8), 0u);
  // Claim less space than the layout needs.
  EXPECT_FALSE(AtlasArea::Validate(buffer.data(), buffer.size() / 2));
}

TEST(AtlasAreaTest, RingsAreDisjointAndWrap) {
  std::vector<char> buffer(1 << 20);
  const std::uint64_t entries =
      AtlasArea::Format(buffer.data(), buffer.size(), 4);
  AtlasArea area(buffer.data(), buffer.size());

  // Wraparound: index `entries` aliases index 0.
  EXPECT_EQ(area.entry(1, 0), area.entry(1, entries));
  EXPECT_EQ(area.entry(1, 3), area.entry(1, entries + 3));

  // Different threads' rings never alias.
  EXPECT_NE(area.entry(0, 0), area.entry(1, 0));
  LogEntry* end_of_ring0 = area.entry(0, entries - 1);
  EXPECT_EQ(end_of_ring0 + 1, area.entry(1, 0));
}

// Ring indices are masks, never divides: Format rounds the capacity
// down to a power of two, and Check refuses any other capacity. With
// the default 32 MiB runtime area (2 MiB of it the trace reservation)
// ~14.8k entries per thread would fit; the ring holds 8192.
TEST(AtlasAreaTest, RingCapacityIsAPowerOfTwo) {
  constexpr std::size_t kRuntimeArea = std::size_t{32} << 20;
  std::vector<char> buffer(AtlasAreaSize(kRuntimeArea));
  EXPECT_EQ(AtlasArea::Format(buffer.data(), buffer.size(),
                              kDefaultMaxThreads),
            8192u);
  AtlasArea area(buffer.data(), buffer.size());
  EXPECT_EQ(area.ring_mask(), 8191u);
  EXPECT_TRUE(AtlasArea::Check(buffer.data(), buffer.size()).ok());

  area.header()->entries_per_thread = 8191;
  EXPECT_FALSE(AtlasArea::Validate(buffer.data(), buffer.size()));
  const Status status = AtlasArea::Check(buffer.data(), buffer.size());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("8191 is not a power of two"),
            std::string::npos)
      << status.message();
}

TEST(AtlasAreaTest, SlotsAreCacheLineAligned) {
  // The real runtime area is page-aligned; emulate that here.
  alignas(4096) static char buffer[1 << 20];
  ASSERT_GT(AtlasArea::Format(buffer, sizeof(buffer), 8), 0u);
  AtlasArea area(buffer, sizeof(buffer));
  for (std::uint32_t t = 0; t < 8; ++t) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(area.slot(t)) %
                  alignof(ThreadLogHeader),
              0u);
  }
}

}  // namespace
}  // namespace tsp::atlas
