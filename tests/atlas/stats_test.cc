#include <gtest/gtest.h>

#include <cstring>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "pheap/test_util.h"

namespace tsp::atlas {
namespace {

using pheap::testing::ScopedRegionFile;

class AtlasStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("stats");
    pheap::RegionOptions options;
    options.size = 32 * 1024 * 1024;
    options.runtime_area_size = 2 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok());
    heap_ = std::move(*heap);
    runtime_ = std::make_unique<AtlasRuntime>(
        heap_.get(), PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime_->Initialize().ok());
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<AtlasRuntime> runtime_;
};

TEST_F(AtlasStatsTest, CountsOcsActivity) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  for (std::uint64_t i = 0; i < 10; ++i) {
    PMutexLock lock(&mutex);
    thread->Store(value, i);
    thread->Store(value, i + 1);  // hits the armed slot
  }
  const AtlasRuntimeStats stats = runtime_->GetStats();
  EXPECT_EQ(stats.ocses_committed, 10u);
  // Each OCS's first store arms a FliT counter slot (no ring record);
  // the second store per OCS hits the armed slot.
  EXPECT_EQ(stats.undo_records, 0u);
  EXPECT_EQ(stats.flit_rearms, 10u);
  EXPECT_EQ(stats.flit_repeat_hits, 10u);
  // 1 ring entry per OCS: the kAcquire bracket, published when the
  // first store arms its slot. Fast-path commits elide the kRelease.
  EXPECT_EQ(stats.log_entries_appended, 10u);
  // Single-threaded, dependency-free: all commits take the fast path.
  EXPECT_EQ(stats.fast_path_commits, 10u);
  EXPECT_EQ(stats.published_commits, 0u);
  EXPECT_EQ(stats.deps_recorded, 0u);
  EXPECT_EQ(stats.pending_unstable, 0u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasStatsTest, CountsLineDedupHits) {
  // With counter slots off, every capture takes the ring path, and the
  // ring path records each capture: a repeated multi-word store over an
  // already-captured span appends one record per word again. Recovery
  // replays them newest first, so the oldest value wins.
  runtime_.reset();
  AtlasRuntime::Options runtime_options;
  runtime_options.use_counter_slots = false;
  runtime_ = std::make_unique<AtlasRuntime>(
      heap_.get(), PersistencePolicy::TspLogOnly(), runtime_options);
  ASSERT_TRUE(runtime_->Initialize().ok());
  auto* blob = static_cast<char*>(heap_->Alloc(64));
  std::memset(blob, 0, 64);
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  char data[40];
  std::memset(data, 0x7E, sizeof(data));
  {
    PMutexLock lock(&mutex);
    thread->StoreBytes(blob, data, sizeof(data));
    thread->StoreBytes(blob, data, sizeof(data));  // same span, same OCS
    thread->StoreBytes(blob + 8, data, 24);        // sub-span, same lines
  }
  const AtlasRuntimeStats stats = runtime_->GetStats();
  EXPECT_EQ(stats.undo_records, 5u + 5u + 3u) << "one record per word";
  EXPECT_EQ(stats.flit_repeat_hits, 0u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasStatsTest, CrossThreadDepsPublish) {
  AtlasThread alice(runtime_.get(), 20);
  AtlasThread bob(runtime_.get(), 21);
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PLockWord outer, shared;

  // Alice releases an inner lock while her OCS is still open, so she is
  // committed-much-later and *unstable* when Bob takes a dependency.
  alice.OnAcquire(&outer, 1);
  alice.OnAcquire(&shared, 2);
  alice.Store(value, std::uint64_t{1});
  alice.OnRelease(&shared, 2);

  bob.OnAcquire(&shared, 2);  // depends on alice's open OCS
  bob.Store(value, std::uint64_t{2});
  bob.OnRelease(&shared, 2);  // bob commits with an unstable dep

  alice.OnRelease(&outer, 1);  // alice commits

  // Manually constructed contexts are not in the registry, so read
  // their local stats directly.
  EXPECT_EQ(bob.local_stats().published_commits, 1u);
  EXPECT_EQ(bob.local_stats().deps_recorded, 1u);
  EXPECT_EQ(alice.local_stats().fast_path_commits, 1u)
      << "alice has no deps and trims inline";
  EXPECT_EQ(runtime_->stability()->PendingCount(), 1u) << "bob pending";
  runtime_->StabilizeNow();
  EXPECT_EQ(runtime_->stability()->PendingCount(), 0u);
}

// An OCS that frees but is not stable at release publishes its frees:
// Bob depends on Alice's open OCS, so the block he frees stays allocated
// until a pass after Alice commits proves him stable.
TEST_F(AtlasStatsTest, UnstableOcsFreesThroughThePruner) {
  AtlasThread alice(runtime_.get(), 20);
  AtlasThread bob(runtime_.get(), 21);
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  void* doomed = heap_->Alloc(24);
  const auto allocated = [doomed] {
    return pheap::Allocator::HeaderOf(doomed)->magic ==
           pheap::BlockHeader::kAllocatedMagic;
  };
  PLockWord outer, shared;

  alice.OnAcquire(&outer, 1);
  alice.OnAcquire(&shared, 2);
  alice.Store(value, std::uint64_t{1});
  alice.OnRelease(&shared, 2);

  bob.OnAcquire(&shared, 2);  // depends on alice's open OCS
  bob.Store(value, std::uint64_t{2});
  bob.DeferFree(doomed);
  bob.OnRelease(&shared, 2);
  EXPECT_EQ(bob.local_stats().published_commits, 1u);
  EXPECT_TRUE(allocated()) << "bob is not stable at release";
  runtime_->StabilizeNow();
  EXPECT_TRUE(allocated()) << "alice is still open, so bob may roll back";

  alice.OnRelease(&outer, 1);
  EXPECT_TRUE(allocated());
  runtime_->StabilizeNow();
  EXPECT_FALSE(allocated()) << "the pass that proves bob stable frees";
  EXPECT_EQ(runtime_->stability()->PendingCount(), 0u);
}

// Bob records a dependency on Alice's open OCS, so he publishes; but
// Alice commits before Bob releases, so the pass Bob's release runs
// finds every dependency stable. Bob is stable when his release returns,
// and his frees ran on this thread, into its magazine, so this thread's
// next allocation of the size gets the block back.
TEST_F(AtlasStatsTest, PublishedOcsWithACommittedDependencyIsStableAtRelease) {
  AtlasThread alice(runtime_.get(), 20);
  AtlasThread bob(runtime_.get(), 21);
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  void* doomed = heap_->Alloc(24);
  PLockWord outer, shared;

  alice.OnAcquire(&outer, 1);
  alice.OnAcquire(&shared, 2);
  alice.Store(value, std::uint64_t{1});
  alice.OnRelease(&shared, 2);
  bob.OnAcquire(&shared, 2);  // depends on alice's open OCS
  const std::uint64_t bob_ocs = bob.current_ocs();
  alice.OnRelease(&outer, 1);  // alice commits
  bob.Store(value, std::uint64_t{2});
  bob.DeferFree(doomed);
  bob.OnRelease(&shared, 2);

  EXPECT_EQ(bob.local_stats().published_commits, 1u);
  EXPECT_EQ(runtime_->stability()->PendingCount(), 0u);
  EXPECT_EQ(runtime_->StableOcsOf(21), bob_ocs);
  EXPECT_NE(pheap::Allocator::HeaderOf(doomed)->magic,
            pheap::BlockHeader::kAllocatedMagic);
  EXPECT_EQ(heap_->Alloc(24), doomed)
      << "the pass freed into this thread's magazine";
}

}  // namespace
}  // namespace tsp::atlas
