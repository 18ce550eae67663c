#include "pheap/heap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "obs/recorder.h"
#include "obs/trace_layout.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

RegionOptions SmallOptions() {
  RegionOptions options;
  options.size = 32 * 1024 * 1024;
  options.runtime_area_size = 2 * 1024 * 1024;
  return options;
}

struct Account {
  std::uint64_t id;
  std::int64_t balance;
};

TEST(HeapTest, NewConstructsAndDeleteFrees) {
  ScopedRegionFile file("heap_new");
  auto heap = PersistentHeap::Create(file.path(), SmallOptions());
  ASSERT_TRUE(heap.ok());
  Account* account = (*heap)->New<Account>(Account{42, 1000});
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(account->id, 42u);
  EXPECT_EQ(account->balance, 1000);
  (*heap)->Delete(account);
  // The freed block is recycled for the next same-size allocation.
  Account* again = (*heap)->New<Account>(Account{1, 2});
  EXPECT_EQ(again, account);
}

TEST(HeapTest, RootRoundTrips) {
  ScopedRegionFile file("heap_root");
  auto heap = PersistentHeap::Create(file.path(), SmallOptions());
  ASSERT_TRUE(heap.ok());
  EXPECT_EQ((*heap)->root(), nullptr);
  Account* account = (*heap)->New<Account>(Account{7, 70});
  (*heap)->set_root(account);
  EXPECT_EQ((*heap)->root<Account>(), account);
  (*heap)->set_root(nullptr);
  EXPECT_EQ((*heap)->root(), nullptr);
}

TEST(HeapTest, DataAndRootSurviveCleanReopen) {
  ScopedRegionFile file("heap_reopen");
  {
    auto heap = PersistentHeap::Create(file.path(), SmallOptions());
    ASSERT_TRUE(heap.ok());
    Account* account = (*heap)->New<Account>(Account{11, 1234});
    (*heap)->set_root(account);
    (*heap)->CloseClean();
  }
  {
    auto heap = PersistentHeap::Open(file.path());
    ASSERT_TRUE(heap.ok());
    EXPECT_FALSE((*heap)->needs_recovery());
    Account* account = (*heap)->root<Account>();
    ASSERT_NE(account, nullptr);
    EXPECT_EQ(account->id, 11u);
    EXPECT_EQ(account->balance, 1234);
  }
}

TEST(HeapTest, UncleanReopenNeedsRecovery) {
  ScopedRegionFile file("heap_unclean");
  {
    auto heap = PersistentHeap::Create(file.path(), SmallOptions());
    ASSERT_TRUE(heap.ok());
    Account* account = (*heap)->New<Account>(Account{3, 30});
    (*heap)->set_root(account);
    // No CloseClean: simulated crash. Stores still reach the file via
    // the shared mapping (kernel persistence).
  }
  {
    auto heap = PersistentHeap::Open(file.path());
    ASSERT_TRUE(heap.ok());
    EXPECT_TRUE((*heap)->needs_recovery());
    // Data written before the "crash" is all there.
    Account* account = (*heap)->root<Account>();
    ASSERT_NE(account, nullptr);
    EXPECT_EQ(account->balance, 30);
    // Recovery GC rebuilds the allocator.
    TypeRegistry registry;
    const GcStats stats = (*heap)->RunRecoveryGc(registry);
    EXPECT_EQ(stats.live_objects, 1u);
  }
}

TEST(HeapTest, RuntimeAreaIsReservedAndWritable) {
  ScopedRegionFile file("heap_rta");
  auto heap = PersistentHeap::Create(file.path(), SmallOptions());
  ASSERT_TRUE(heap.ok());
  void* area = (*heap)->runtime_area();
  const std::size_t size = (*heap)->runtime_area_size();
  EXPECT_GE(size, 2u * 1024 * 1024);
  std::memset(area, 0xCD, size);
  // The runtime area never overlaps allocations.
  void* p = (*heap)->Alloc(1 << 20);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(static_cast<char*>(p), static_cast<char*>(area) + size);
}

#ifndef TSP_OBS_DISABLED

/// The trace area header at the tail of `heap`'s runtime area.
obs::TraceAreaHeader* TraceHeaderOf(const PersistentHeap& heap) {
  return reinterpret_cast<obs::TraceAreaHeader*>(
      static_cast<char*>(heap.runtime_area()) + heap.runtime_area_size() -
      obs::TraceReservationBytes(heap.runtime_area_size()));
}

// A crashed heap's flight-recorder rings are evidence recovery runs
// beside: an area of another format version or with a torn geometry is
// refused with one diagnostic naming both versions, never overwritten.
// An area without the trace magic opens untraced, and a clean heap
// reformats whatever it finds.
TEST(HeapTest, CrashedHeapWithAnUnreadableTraceAreaIsRefused) {
  const bool trace_was_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  ScopedRegionFile file("heap_trace_format");
  RegionOptions options = SmallOptions();
  options.runtime_area_size = 8 * 1024 * 1024;  // has a trace reservation
  // Creates the heap, changes its trace header with `edit`, and leaves
  // it crashed (no CloseClean) or clean.
  auto make = [&](auto edit, bool clean) {
    unlink(file.path().c_str());
    auto heap = PersistentHeap::Create(file.path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    ASSERT_NE((*heap)->recorder(), nullptr);
    edit(TraceHeaderOf(**heap));
    if (clean) (*heap)->CloseClean();
  };
  const auto older = [](obs::TraceAreaHeader* h) {
    h->version = obs::kTraceVersion - 1;
  };

  make(older, /*clean=*/false);
  auto refused = PersistentHeap::Open(file.path());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);
  const std::string& reason = refused.status().message();
  EXPECT_NE(reason.find("version " + std::to_string(obs::kTraceVersion - 1)),
            std::string::npos)
      << reason;
  EXPECT_NE(reason.find("version " + std::to_string(obs::kTraceVersion)),
            std::string::npos)
      << reason;

  make([](obs::TraceAreaHeader* h) { h->events_per_thread = 1021; },
       /*clean=*/false);
  refused = PersistentHeap::Open(file.path());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kCorruption);

  make([](obs::TraceAreaHeader* h) { h->magic = 0; }, /*clean=*/false);
  auto untraced = PersistentHeap::Open(file.path());
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  EXPECT_TRUE((*untraced)->needs_recovery());
  EXPECT_EQ((*untraced)->recorder(), nullptr);
  untraced->reset();

  make(older, /*clean=*/true);
  auto reformatted = PersistentHeap::Open(file.path());
  ASSERT_TRUE(reformatted.ok()) << reformatted.status().ToString();
  EXPECT_NE((*reformatted)->recorder(), nullptr);
  EXPECT_EQ(TraceHeaderOf(**reformatted)->version, obs::kTraceVersion);
  obs::SetTraceEnabled(trace_was_enabled);
}

#endif  // TSP_OBS_DISABLED

struct Typed {
  static constexpr std::uint32_t kPersistentTypeId = 77;
  int x;
};

struct Untyped {
  int x;
};

TEST(HeapTest, AllocRespectsTypeIds) {
  ScopedRegionFile file("heap_type");
  auto heap = PersistentHeap::Create(file.path(), SmallOptions());
  ASSERT_TRUE(heap.ok());
  void* p = (*heap)->Alloc(64, 1234);
  EXPECT_EQ(Allocator::HeaderOf(p)->type_id, 1234u);

  Typed* typed = (*heap)->New<Typed>();
  EXPECT_EQ(Allocator::HeaderOf(typed)->type_id, 77u);

  Untyped* untyped = (*heap)->New<Untyped>();
  EXPECT_EQ(Allocator::HeaderOf(untyped)->type_id, 0u);
}

TEST(HeapTest, ManyObjectsAcrossReopen) {
  ScopedRegionFile file("heap_many");
  constexpr int kCount = 10000;
  {
    auto heap = PersistentHeap::Create(file.path(), SmallOptions());
    ASSERT_TRUE(heap.ok());
    std::uint64_t** index =
        static_cast<std::uint64_t**>((*heap)->Alloc(kCount * sizeof(void*)));
    for (int i = 0; i < kCount; ++i) {
      auto* v = static_cast<std::uint64_t*>((*heap)->Alloc(8));
      *v = static_cast<std::uint64_t>(i) * 3;
      index[i] = v;
    }
    (*heap)->set_root(index);
    (*heap)->CloseClean();
  }
  {
    auto heap = PersistentHeap::Open(file.path());
    ASSERT_TRUE(heap.ok());
    auto** index = (*heap)->root<std::uint64_t*>();
    for (int i = 0; i < kCount; ++i) {
      ASSERT_EQ(*index[i], static_cast<std::uint64_t>(i) * 3);
    }
  }
}

}  // namespace
}  // namespace tsp::pheap
