// Copyright 2026 The TSP Authors.
// AddressSlotAllocator: span allocation, specific reservation with the
// no-silent-clobber guarantee, release and quarantine semantics.
//
// The allocator is a process-wide singleton shared with every other
// test in this binary (regions opened elsewhere hold slots), so these
// tests only reason about slots they acquired themselves and always
// release them.

#include "pheap/address_slots.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace tsp::pheap {
namespace {

using Alloc = AddressSlotAllocator;

TEST(AddressSlotsTest, GeometryConstants) {
  EXPECT_EQ(Alloc::AddressOf(0), Alloc::kSlotBase);
  EXPECT_EQ(Alloc::AddressOf(1), Alloc::kSlotBase + Alloc::kSlotStride);
  // The whole window lies below the 47-bit user-space ceiling.
  EXPECT_LE(Alloc::AddressOf(Alloc::kSlotCount), std::uintptr_t{1} << 47);
  EXPECT_EQ(Alloc::SlotsFor(1), 1u);
  EXPECT_EQ(Alloc::SlotsFor(Alloc::kSlotStride), 1u);
  EXPECT_EQ(Alloc::SlotsFor(Alloc::kSlotStride + 1), 2u);
}

TEST(AddressSlotsTest, AcquireHandsOutDistinctSlots) {
  Alloc& alloc = Alloc::Instance();
  std::set<std::uint32_t> got;
  std::vector<std::uint32_t> held;
  for (int i = 0; i < 8; ++i) {
    auto slot = alloc.Acquire(1 << 20);
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    EXPECT_TRUE(got.insert(*slot).second) << "slot handed out twice";
    held.push_back(*slot);
  }
  for (const std::uint32_t slot : held) alloc.Release(slot);
}

TEST(AddressSlotsTest, SpecificAcquireRefusesHeldSlot) {
  Alloc& alloc = Alloc::Instance();
  auto slot = alloc.Acquire(1 << 20);
  ASSERT_TRUE(slot.ok());
  const Status conflict = alloc.AcquireSpecific(*slot, 1 << 20);
  EXPECT_EQ(conflict.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(conflict.message().find("no silent clobber"),
            std::string::npos)
      << conflict.message();
  alloc.Release(*slot);
  // After release the same slot is available again.
  EXPECT_TRUE(alloc.AcquireSpecific(*slot, 1 << 20).ok());
  alloc.Release(*slot);
}

TEST(AddressSlotsTest, MultiSlotSpansDoNotOverlap) {
  Alloc& alloc = Alloc::Instance();
  // A region larger than one slot takes consecutive slots; a later
  // specific acquire of the middle slot must fail.
  auto span = alloc.Acquire(Alloc::kSlotStride * 2);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(alloc.AcquireSpecific(*span + 1, 1 << 20).code(),
            StatusCode::kFailedPrecondition);
  auto other = alloc.Acquire(1 << 20);
  ASSERT_TRUE(other.ok());
  EXPECT_NE(*other, *span);
  EXPECT_NE(*other, *span + 1);
  alloc.Release(*span);
  alloc.Release(*other);
}

TEST(AddressSlotsTest, QuarantinedSlotIsNeverReissued) {
  Alloc& alloc = Alloc::Instance();
  auto slot = alloc.Acquire(1 << 20);
  ASSERT_TRUE(slot.ok());
  alloc.Release(*slot);
  alloc.Quarantine(*slot, 1 << 20);
  // Release is a no-op on quarantined slots...
  alloc.Release(*slot);
  // ...and neither path can hand it out again.
  EXPECT_EQ(alloc.AcquireSpecific(*slot, 1 << 20).code(),
            StatusCode::kFailedPrecondition);
  auto next = alloc.Acquire(1 << 20);
  ASSERT_TRUE(next.ok());
  EXPECT_NE(*next, *slot);
  alloc.Release(*next);
}

TEST(AddressSlotsTest, ReleaseOfUnheldSlotIsANoOp) {
  Alloc& alloc = Alloc::Instance();
  const std::uint32_t before = alloc.held_count();
  alloc.Release(63);
  EXPECT_EQ(alloc.held_count(), before);
}

}  // namespace
}  // namespace tsp::pheap
