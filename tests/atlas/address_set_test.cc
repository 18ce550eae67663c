#include "atlas/address_set.h"

#include <gtest/gtest.h>

#include <set>

#include "common/random.h"

namespace tsp::atlas {
namespace {

TEST(AddressSetTest, FirstCoverIsNew) {
  AddressSet set;
  EXPECT_TRUE(set.CoverWord(0x1000));
  EXPECT_FALSE(set.CoverWord(0x1000));
  EXPECT_TRUE(set.CoverWord(0x1008));
  // Both words share the line at 0x1000: one slot.
  EXPECT_EQ(set.size(), 1u);
}

TEST(AddressSetTest, AdjacentWordsShareALineSlot) {
  AddressSet set;
  EXPECT_TRUE(set.CoverWord(0x2000));
  // A different word of the same cache line must still be logged, but
  // it lands on the existing line slot.
  EXPECT_TRUE(set.CoverWord(0x2008));
  EXPECT_EQ(set.size(), 1u);
  // The same word again: full dedup.
  EXPECT_FALSE(set.CoverWord(0x2008));
  EXPECT_EQ(set.size(), 1u);
}

TEST(AddressSetTest, NewEpochClears) {
  AddressSet set;
  EXPECT_TRUE(set.CoverWord(0x2000));
  set.NewEpoch();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.CoverWord(0x2000));
}

TEST(AddressSetTest, GrowsBeyondInitialCapacity) {
  AddressSet set;
  const std::size_t initial = set.capacity();
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.CoverWord(0x10000 + i * 64));
  }
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_GT(set.capacity(), initial);
  // All still present after growth.
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_FALSE(set.CoverWord(0x10000 + i * 64));
  }
}

TEST(AddressSetTest, SurvivesManyEpochsWithoutGrowth) {
  AddressSet set;
  for (int epoch = 0; epoch < 1000; ++epoch) {
    set.NewEpoch();
    for (std::uint64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE(set.CoverWord(0x100 + i * 64));
    }
  }
  // Epoch clearing is O(1): capacity stays small for small epochs.
  EXPECT_LE(set.capacity(), 512u);
  EXPECT_EQ(set.shrinks(), 0u);
}

TEST(AddressSetTest, ShrinksAfterQuietEpochs) {
  AddressSet set;
  // One oversized OCS inflates the table...
  for (std::uint64_t i = 0; i < 10000; ++i) {
    set.CoverWord(0x10000 + i * 64);
  }
  const std::size_t inflated = set.capacity();
  ASSERT_GT(inflated, AddressSet::kInitialCapacity);
  // ...then a run of quiet epochs retires it back to the initial size.
  for (std::uint64_t epoch = 0;
       epoch <= AddressSet::kShrinkAfterQuietEpochs; ++epoch) {
    set.NewEpoch();
    for (std::uint64_t i = 0; i < 4; ++i) {
      set.CoverWord(0x100 + i * 64);
    }
  }
  EXPECT_EQ(set.capacity(), AddressSet::kInitialCapacity);
  EXPECT_EQ(set.shrinks(), 1u);
  // Still correct after the shrink.
  EXPECT_FALSE(set.CoverWord(0x100));
  EXPECT_TRUE(set.CoverWord(0x9000));
}

TEST(AddressSetTest, BusyEpochsResetTheQuietRun) {
  AddressSet set;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    set.CoverWord(0x10000 + i * 64);
  }
  const std::size_t inflated = set.capacity();
  // Alternate quiet and busy epochs: the quiet run never reaches the
  // threshold, so the table stays inflated (no thrashing).
  for (std::uint64_t round = 0;
       round < 2 * AddressSet::kShrinkAfterQuietEpochs; ++round) {
    set.NewEpoch();
    const std::uint64_t count = round % 2 == 0 ? 4 : 10000;
    for (std::uint64_t i = 0; i < count; ++i) {
      set.CoverWord(0x10000 + i * 64);
    }
  }
  EXPECT_EQ(set.capacity(), inflated);
  EXPECT_EQ(set.shrinks(), 0u);
}

TEST(AddressSetTest, RandomizedAgainstReference) {
  tsp::Random rng(2026);
  AddressSet set;
  for (int epoch = 0; epoch < 20; ++epoch) {
    set.NewEpoch();
    std::set<std::uint64_t> words;
    std::set<std::uint64_t> lines;
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t word = rng.Uniform(1024) * 8;
      lines.insert(word >> 6);
      EXPECT_EQ(set.CoverWord(word), words.insert(word).second);
    }
    EXPECT_EQ(set.size(), lines.size());
  }
}

}  // namespace
}  // namespace tsp::atlas
