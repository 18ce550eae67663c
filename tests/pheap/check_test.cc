#include "pheap/check.h"

#include <gtest/gtest.h>

#include <cstring>

#include "atlas/log_layout.h"
#include "common/findings.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

struct Node {
  static constexpr std::uint32_t kPersistentTypeId = 0x4E4F4445;  // "NODE"
  std::uint64_t value;
  Node* next;
};

TypeRegistry MakeRegistry() {
  TypeRegistry registry;
  registry.Register<Node>("Node",
                          [](const void* payload,
                             const PointerVisitor& visit) {
                            visit(static_cast<const Node*>(payload)->next);
                          });
  return registry;
}

class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("check");
    RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.runtime_area_size = 1 * 1024 * 1024;
    auto heap = PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok());
    heap_ = std::move(*heap);
    registry_ = MakeRegistry();
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<PersistentHeap> heap_;
  TypeRegistry registry_;
};

TEST_F(CheckTest, FreshHeapIsClean) {
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.reachable_objects, 0u);
  EXPECT_EQ(report.free_blocks, 0u);
  EXPECT_EQ(report.unaccounted_bytes, 0u);
}

TEST_F(CheckTest, LiveChainAndFreeListsAccounted) {
  Node* head = nullptr;
  for (int i = 0; i < 10; ++i) {
    Node* node = heap_->New<Node>();
    node->value = static_cast<std::uint64_t>(i);
    node->next = head;
    head = node;
  }
  heap_->set_root(head);
  // A few frees populate the free lists (drained out of this thread's
  // magazine so the checker can see them on the shared lists).
  heap_->Free(heap_->Alloc(100));
  heap_->Free(heap_->Alloc(5000));
  heap_->allocator()->FlushCurrentThreadCache();

  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.reachable_objects, 10u);
  // At least the two explicit frees; batch refills carve extra blocks
  // that the flush also leaves on the shared lists.
  EXPECT_GE(report.free_blocks, 2u);
  EXPECT_EQ(report.unaccounted_bytes, 0u);
}

TEST_F(CheckTest, LeakedBlocksShowAsUnaccounted) {
  heap_->set_root(heap_->New<Node>());
  heap_->Alloc(64);  // never freed, never reachable
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_TRUE(report.ok) << "leaks are not corruption";
  EXPECT_GT(report.unaccounted_bytes, 0u);
}

TEST_F(CheckTest, DetectsCorruptLiveMagic) {
  Node* node = heap_->New<Node>();
  node->next = nullptr;
  heap_->set_root(node);
  Allocator::HeaderOf(node)->magic = 0xBAD;
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("allocated magic"), std::string::npos);
}

TEST_F(CheckTest, DetectsFreeListCorruption) {
  void* block = heap_->Alloc(100);
  heap_->Free(block);
  // Park nothing: the scribbled block must be on the shared list where
  // CheckHeap walks, not in this thread's magazine.
  heap_->allocator()->FlushCurrentThreadCache();
  // Scribble the freed block's size.
  Allocator::HeaderOf(block)->block_size = 999;
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
}

TEST_F(CheckTest, DetectsLiveFreeOverlap) {
  Node* node = heap_->New<Node>();
  node->next = nullptr;
  heap_->set_root(node);
  // Forge a free-list entry pointing at the live block.
  BlockHeader* header = Allocator::HeaderOf(node);
  const std::uint64_t offset = heap_->region()->ToOffset(header);
  auto* region_header = heap_->region()->header();
  // Keep the allocated magic intact but thread it into a free list of
  // the same class — the overlap detector must complain (either about
  // the magic or the collision).
  const int size_class = Allocator::SizeClassOf(header->size());
  region_header->free_lists[size_class].head.store(
      MakeTagged(1, offset), std::memory_order_relaxed);
  static_cast<FreeBlockPayload*>(static_cast<void*>(node))->next_offset = 0;
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
}

// Formats a one-ring Atlas area of the current format version in the
// heap's runtime area, the way AtlasRuntime::Initialize would, and
// zeroes the ring's first entries (kInvalid); [head, tail) is whatever
// the test sets.
struct FakeLog {
  atlas::AtlasAreaHeader* area;
  atlas::ThreadLogHeader* slot;
  atlas::LogEntry* ring;
};

FakeLog FormatFakeLog(PersistentHeap* heap, std::uint64_t entries) {
  const std::size_t size = atlas::AtlasAreaSize(heap->runtime_area_size());
  atlas::AtlasArea area(heap->runtime_area(), size);
  EXPECT_GE(atlas::AtlasArea::Format(heap->runtime_area(), size,
                                     /*max_threads=*/1),
            entries);
  std::memset(static_cast<void*>(area.entry(0, 0)), 0,
              entries * sizeof(atlas::LogEntry));
  return FakeLog{area.header(), area.slot(0), area.entry(0, 0)};
}

class UndoLogCheckTest : public CheckTest {
 protected:
  void SetUp() override {
    CheckTest::SetUp();
    log_ = FormatFakeLog(heap_.get(), 64);
    // A real arena offset for valid store records to point at.
    Node* node = heap_->New<Node>();
    node->next = nullptr;
    heap_->set_root(node);
    node_offset_ = heap_->region()->ToOffset(node);
  }

  atlas::LogEntry MakeStore(std::uint64_t seq, std::uint64_t addr_offset,
                            std::uint8_t size = 8) {
    atlas::LogEntry entry{};
    entry.kind = atlas::EntryKind::kStore;
    entry.seq = seq;
    entry.addr_offset = addr_offset;
    entry.size = size;
    return entry;
  }

  void SetWindow(std::uint64_t head, std::uint64_t tail) {
    log_.slot->head.store(head, std::memory_order_relaxed);
    log_.slot->tail.store(tail, std::memory_order_relaxed);
  }

  FakeLog log_;
  std::uint64_t node_offset_ = 0;
};

TEST_F(UndoLogCheckTest, WellFormedRingPasses) {
  // One committed OCS with a nested lock, then one a crash left open.
  log_.ring[0].kind = atlas::EntryKind::kAcquire;
  log_.ring[0].addr_offset = 1;  // OCS id
  log_.ring[1] = MakeStore(5, node_offset_);
  log_.ring[2].kind = atlas::EntryKind::kAcquire;
  log_.ring[3] = MakeStore(9, node_offset_);
  log_.ring[4].kind = atlas::EntryKind::kRelease;
  log_.ring[5].kind = atlas::EntryKind::kRelease;
  log_.ring[6].kind = atlas::EntryKind::kAcquire;
  log_.ring[6].addr_offset = 2;
  log_.ring[7] = MakeStore(11, node_offset_);
  SetWindow(0, 8);
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.log_rings_scanned, 1u);
  EXPECT_EQ(report.log_entries_scanned, 8u);
}

TEST_F(UndoLogCheckTest, DetectsNonMonotoneStamps) {
  log_.ring[0] = MakeStore(9, node_offset_);
  log_.ring[1] = MakeStore(5, node_offset_);  // stamp went backwards
  SetWindow(0, 2);
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("stamp not monotone"),
            std::string::npos)
      << report.ToString();
}

TEST_F(UndoLogCheckTest, DetectsStoreOutsideTheArena) {
  log_.ring[0] = MakeStore(5, 0);  // offset 0 = the region header
  SetWindow(0, 1);
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("targets outside the arena"),
            std::string::npos);
}

TEST_F(UndoLogCheckTest, DetectsReleaseWithoutAcquire) {
  log_.ring[0].kind = atlas::EntryKind::kRelease;
  SetWindow(0, 1);
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("release without matching acquire"),
            std::string::npos);
}

TEST_F(UndoLogCheckTest, DetectsCorruptRingIndices) {
  SetWindow(10, 2);  // head past tail
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("indices are corrupt"),
            std::string::npos);
}

TEST_F(UndoLogCheckTest, DetectsGeometryOverflow) {
  log_.area->entries_per_thread = 1ULL << 40;  // rings exceed the area
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("geometry exceeds"), std::string::npos);
}

// The cap-16 problems vector used to silently swallow everything past
// 16; problems_total now keeps the true count and ToString says what
// was elided. 32 zeroed (kInvalid) entries in the window = 32 problems.
TEST_F(UndoLogCheckTest, ProblemsTotalCountsPastTheCap) {
  SetWindow(0, 32);
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.problems.size(), 16u);
  EXPECT_EQ(report.problems_total, 32u);
  EXPECT_NE(report.ToString().find("+16 more problems not shown"),
            std::string::npos)
      << report.ToString();
}

TEST_F(UndoLogCheckTest, AppendToTagsUndoLogFindings) {
  log_.ring[0] = MakeStore(9, node_offset_);
  log_.ring[1] = MakeStore(5, node_offset_);
  SetWindow(0, 2);
  const CheckReport report = CheckHeap(*heap_, registry_);
  report::FindingSink sink(16);
  report.AppendTo(&sink);
  ASSERT_FALSE(sink.empty());
  EXPECT_EQ(sink.findings()[0].tool, "heap-check");
  EXPECT_EQ(sink.findings()[0].rule, "undo-log");
  EXPECT_EQ(sink.findings()[0].severity, report::Severity::kError);
}

TEST_F(CheckTest, CleanAfterGc) {
  for (int i = 0; i < 100; ++i) heap_->New<Node>()->next = nullptr;
  heap_->set_root(nullptr);
  heap_->RunRecoveryGc(registry_);
  const CheckReport report = CheckHeap(*heap_, registry_);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.unaccounted_bytes, 0u);
}

}  // namespace
}  // namespace tsp::pheap
