#include "atlas/recovery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "pheap/check.h"
#include "pheap/test_util.h"
#include "pheap/type_registry.h"

namespace tsp::atlas {
namespace {

using pheap::testing::ScopedRegionFile;

// Persistent root for these tests: a few plain words.
struct TestRoot {
  std::uint64_t values[8];
};

pheap::RegionOptions Options() {
  pheap::RegionOptions options;
  options.size = 32 * 1024 * 1024;
  options.runtime_area_size = 2 * 1024 * 1024;
  return options;
}

// Harness that owns a heap+runtime session and can "crash" it: tears
// down the mappings exactly as a SIGKILL would leave the file (every
// store persisted, no clean-shutdown mark).
class Session {
 public:
  Session(const std::string& path, bool create) {
    if (create) {
      auto heap = pheap::PersistentHeap::Create(path, Options());
      TSP_CHECK(heap.ok()) << heap.status().ToString();
      heap_ = std::move(*heap);
      TestRoot* root = heap_->New<TestRoot>();
      for (auto& v : root->values) v = 0;
      heap_->set_root(root);
    } else {
      auto heap = pheap::PersistentHeap::Open(path);
      TSP_CHECK(heap.ok()) << heap.status().ToString();
      heap_ = std::move(*heap);
    }
  }

  /// Runs Atlas recovery if needed; returns stats.
  RecoveryStats Recover() {
    auto stats = RecoverAtlas(heap_.get());
    TSP_CHECK(stats.ok()) << stats.status().ToString();
    heap_->FinishRecovery();
    return *stats;
  }

  void StartRuntime(PersistencePolicy policy, bool use_counter_slots = true) {
    AtlasRuntime::Options options;
    options.use_counter_slots = use_counter_slots;
    runtime_ =
        std::make_unique<AtlasRuntime>(heap_.get(), policy, options);
    TSP_CHECK_OK(runtime_->Initialize());
  }

  TestRoot* root() { return heap_->root<TestRoot>(); }
  pheap::PersistentHeap* heap() { return heap_.get(); }
  AtlasRuntime* runtime() { return runtime_.get(); }

  /// Simulated crash: destroy runtime and unmap without CloseClean.
  void Crash() {
    runtime_.reset();
    heap_.reset();
  }

  void CloseCleanly() {
    runtime_.reset();
    heap_->CloseClean();
    heap_.reset();
  }

 private:
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<AtlasRuntime> runtime_;
};

class AtlasRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("atlasrec");
  }

  std::unique_ptr<ScopedRegionFile> file_;
};

/// Runs `body` as one OCS of `thread` that publishes instead of
/// committing inline, so the ring keeps its entries: the manual context
/// `peer` opens an OCS and releases a nested lock that `thread` then
/// takes, so `thread` records a dependency on an open OCS; `peer`
/// commits right after. The pass at `thread`'s release leaves the OCS
/// pending, and the pass of `thread`'s next publish stabilizes it.
template <typename Body>
void RunPublishedOcs(AtlasThread* peer, AtlasThread* thread, Body body) {
  PLockWord outer;
  PLockWord shared;
  peer->OnAcquire(&outer, 91);
  peer->OnAcquire(&shared, 92);
  peer->OnRelease(&shared, 92);  // nested: releases while still open
  const std::uint64_t published = thread->local_stats().published_commits;
  thread->OnAcquire(&shared, 92);
  body();
  thread->OnRelease(&shared, 92);
  peer->OnRelease(&outer, 91);
  ASSERT_EQ(thread->local_stats().published_commits, published + 1);
}

TEST_F(AtlasRecoveryTest, CleanHeapNeedsNoRecovery) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    session.CloseCleanly();
  }
  Session session(file_->path(), /*create=*/false);
  EXPECT_FALSE(session.heap()->needs_recovery());
  const RecoveryStats stats = session.Recover();
  EXPECT_FALSE(stats.performed);
}

TEST_F(AtlasRecoveryTest, CrashWithNoOpenOcsUndoesNothing) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    PMutex mutex(session.runtime());
    AtlasThread* thread = session.runtime()->CurrentThread();
    {
      PMutexLock lock(&mutex);
      thread->Store(&session.root()->values[0], std::uint64_t{111});
    }
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  EXPECT_TRUE(session.heap()->needs_recovery());
  const RecoveryStats stats = session.Recover();
  EXPECT_TRUE(stats.performed);
  EXPECT_EQ(stats.ocses_incomplete, 0u);
  EXPECT_EQ(stats.stores_undone, 0u);
  EXPECT_EQ(session.root()->values[0], 111u) << "committed data survives";
}

TEST_F(AtlasRecoveryTest, InterruptedOcsIsRolledBack) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    TestRoot* root = session.root();

    // One committed OCS.
    PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->Store(&root->values[0], std::uint64_t{10});
    thread->OnRelease(&word, 1);

    // One OCS left open at the crash.
    thread->OnAcquire(&word, 1);
    thread->Store(&root->values[0], std::uint64_t{999});
    thread->Store(&root->values[1], std::uint64_t{888});
    session.Crash();  // never released
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_TRUE(stats.performed);
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.stores_undone, 2u);
  EXPECT_EQ(session.root()->values[0], 10u)
      << "rolled back to the last committed value";
  EXPECT_EQ(session.root()->values[1], 0u);
}

TEST_F(AtlasRecoveryTest, RepeatedStoresRollBackToOcsEntryValue) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    TestRoot* root = session.root();
    root->values[2] = 5;

    PLockWord word;
    thread->OnAcquire(&word, 1);
    // Many stores to one location: only the first old value matters.
    for (std::uint64_t i = 0; i < 50; ++i) {
      thread->Store(&root->values[2], 100 + i);
    }
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  session.Recover();
  EXPECT_EQ(session.root()->values[2], 5u);
}

TEST_F(AtlasRecoveryTest, CompletedDependentOcsCascades) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    TestRoot* root = session.root();

    AtlasThread a(session.runtime(), 20);
    AtlasThread b(session.runtime(), 21);
    PLockWord outer, shared;

    // A opens, writes, releases an inner lock, stays open.
    a.OnAcquire(&outer, 1);
    a.OnAcquire(&shared, 2);
    a.Store(&root->values[0], std::uint64_t{777});
    a.OnRelease(&shared, 2);

    // B acquires the lock A released → depends on A; B commits.
    b.OnAcquire(&shared, 2);
    b.Store(&root->values[1], std::uint64_t{555});
    b.OnRelease(&shared, 2);

    session.Crash();  // A never committed
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.ocses_cascaded, 1u)
      << "B completed but observed A's uncommitted data (Atlas §2.3)";
  EXPECT_EQ(session.root()->values[0], 0u);
  EXPECT_EQ(session.root()->values[1], 0u);
}

TEST_F(AtlasRecoveryTest, IndependentCompletedOcsDoesNotCascade) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    TestRoot* root = session.root();

    AtlasThread a(session.runtime(), 20);
    AtlasThread b(session.runtime(), 21);
    PLockWord lock_a, lock_b;

    a.OnAcquire(&lock_a, 1);
    a.Store(&root->values[0], std::uint64_t{777});
    // B uses a different lock: no dependency.
    b.OnAcquire(&lock_b, 2);
    b.Store(&root->values[1], std::uint64_t{555});
    b.OnRelease(&lock_b, 2);

    session.Crash();  // only A incomplete
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.ocses_cascaded, 0u);
  EXPECT_EQ(session.root()->values[0], 0u) << "A rolled back";
  EXPECT_EQ(session.root()->values[1], 555u) << "B survives";
}

TEST_F(AtlasRecoveryTest, CascadeIsTransitive) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    TestRoot* root = session.root();

    AtlasThread a(session.runtime(), 20);
    AtlasThread b(session.runtime(), 21);
    AtlasThread c(session.runtime(), 22);
    PLockWord outer, l1, l2;

    a.OnAcquire(&outer, 1);
    a.OnAcquire(&l1, 2);
    a.Store(&root->values[0], std::uint64_t{1});
    a.OnRelease(&l1, 2);

    b.OnAcquire(&l1, 2);  // B ← A
    b.Store(&root->values[1], std::uint64_t{2});
    b.OnRelease(&l1, 2);  // B commits

    c.OnAcquire(&l1, 2);  // C ← B
    c.Store(&root->values[2], std::uint64_t{3});
    c.OnRelease(&l1, 2);  // C commits

    session.Crash();  // A incomplete
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.ocses_cascaded, 2u);
  EXPECT_EQ(session.root()->values[0], 0u);
  EXPECT_EQ(session.root()->values[1], 0u);
  EXPECT_EQ(session.root()->values[2], 0u);
}

// A stability pass follows program order: B's second OCS records no
// dependency of its own, but recovery rolls it back with B's first OCS,
// which depends on A's open OCS. So C's OCS, which read B's second OCS's
// data, must stay unstable, or it would survive a crash that undoes
// what it read.
TEST_F(AtlasRecoveryTest, PassTaintsEveryLaterOcsOfATaintedThread) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    TestRoot* root = session.root();

    AtlasThread a(session.runtime(), 20);
    AtlasThread b(session.runtime(), 21);
    AtlasThread c(session.runtime(), 22);
    PLockWord outer, l1, l2;

    a.OnAcquire(&outer, 1);
    a.OnAcquire(&l1, 2);
    a.OnRelease(&l1, 2);  // A stays open

    b.OnAcquire(&l1, 2);  // b1 ← A
    b.Store(&root->values[1], std::uint64_t{11});
    b.OnRelease(&l1, 2);
    b.OnAcquire(&l2, 3);  // b2: no recorded dependency
    b.Store(&root->values[2], std::uint64_t{22});
    b.OnRelease(&l2, 3);

    c.OnAcquire(&l2, 3);  // C ← b2
    const std::uint64_t c_ocs = c.current_ocs();
    c.Store(&root->values[3], std::uint64_t{33});
    c.OnRelease(&l2, 3);

    session.runtime()->StabilizeNow();
    EXPECT_GT(c_ocs, session.runtime()->StableOcsOf(22))
        << "C read b2, which rolls back with b1";
    session.Crash();  // A never committed
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(session.root()->values[1], 0u);
  EXPECT_EQ(session.root()->values[2], 0u);
  EXPECT_EQ(session.root()->values[3], 0u)
      << "C survived a crash that rolled back the data it read";
}

TEST_F(AtlasRecoveryTest, UndoAppliesInReverseGlobalOrder) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    TestRoot* root = session.root();
    root->values[3] = 1;

    AtlasThread a(session.runtime(), 20);
    AtlasThread b(session.runtime(), 21);
    PLockWord outer_a, outer_b, shared;

    // A (open) writes 2 over 1; B (commits, dependent) writes 3 over 2.
    a.OnAcquire(&outer_a, 1);
    a.OnAcquire(&shared, 3);
    a.Store(&root->values[3], std::uint64_t{2});
    a.OnRelease(&shared, 3);

    b.OnAcquire(&outer_b, 2);
    b.OnAcquire(&shared, 3);
    b.Store(&root->values[3], std::uint64_t{3});
    b.OnRelease(&shared, 3);
    b.OnRelease(&outer_b, 2);  // B commits

    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.stores_undone, 2u);
  // Wrong order would leave 2 (B's old value applied last); reverse
  // global order restores A's old value 1.
  EXPECT_EQ(session.root()->values[3], 1u);
}

TEST_F(AtlasRecoveryTest, StableTrimmedOcsesNeverRollBack) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    PMutex mutex(session.runtime());
    AtlasThread* thread = session.runtime()->CurrentThread();
    TestRoot* root = session.root();
    for (std::uint64_t i = 1; i <= 20; ++i) {
      PMutexLock lock(&mutex);
      thread->Store(&root->values[4], i);
    }
    session.runtime()->StabilizeNow();  // trims all 20 OCSes

    // Crash inside a new OCS.
    PLockWord word;
    thread->OnAcquire(&word, 9);
    thread->Store(&root->values[4], std::uint64_t{666});
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(session.root()->values[4], 20u)
      << "trimmed history is immune; only the open OCS rolls back";
}

TEST_F(AtlasRecoveryTest, RecoveryResetsLogsForNextSession) {
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->Store(&session.root()->values[0], std::uint64_t{1});
    session.Crash();
  }
  {
    Session session(file_->path(), /*create=*/false);
    session.Recover();
    // A second recovery of the same image is a no-op: logs were reset.
    // (Simulate by re-running RecoverAtlas directly.)
    auto again = RecoverAtlas(session.heap());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->entries_scanned, 0u);
    // And the runtime can start.
    session.heap()->CloseClean();
  }
}

TEST_F(AtlasRecoveryTest, RecoveryAfterRingWrapRollsBackOnlyOpenOcs) {
  // Drive enough published OCSes through a small ring that it wraps
  // several times (each publish's pass trims its predecessor), then
  // crash mid-OCS: recovery must roll back exactly the open OCS, and
  // keep the last published one, even though the ring indices are far
  // past the capacity.
  std::uint64_t last = 0;
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    AtlasThread peer(session.runtime(), 40);
    TestRoot* root = session.root();
    const std::uint64_t capacity =
        session.runtime()->area().entries_per_thread();
    const ThreadLogHeader* slot =
        session.runtime()->area().slot(thread->thread_id());
    // A published OCS keeps its kAcquire, its capture (a ring record,
    // or a counter slot and no ring entry) and its kRelease.
    while (slot->tail.load() < 3 * capacity) {
      RunPublishedOcs(&peer, thread,
                      [&] { thread->Store(&root->values[5], ++last); });
    }
    ASSERT_GT(slot->tail.load(), capacity) << "ring must have wrapped";
    ASSERT_LT(slot->head.load(), slot->tail.load())
        << "the last published OCS must still be in the ring";

    PLockWord word;
    thread->OnAcquire(&word, 3);
    thread->Store(&root->values[5], std::uint64_t{0xBAD});
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_seen, 2u) << "the last published OCS and the open one";
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.ocses_cascaded, 0u);
  EXPECT_EQ(stats.stores_undone, 1u);
  // Rolled back to the last committed round, which recovery kept.
  EXPECT_EQ(session.root()->values[5], last);
}

TEST_F(AtlasRecoveryTest, RangeRecordRecoversOldBytes) {
  // A multi-word guarded store is captured one record per word (ring
  // entry or counter slot); replay must restore every byte of the span.
  std::uint64_t before[5];
  std::uint64_t after[5];
  for (std::uint64_t i = 0; i < 5; ++i) {
    before[i] = 0xA0A0A0A000000000ULL + i;
    after[i] = 0xBADBADBAD0000000ULL + i;
  }
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    TestRoot* root = session.root();

    // Commit a known 40-byte image of values[0..4].
    PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->StoreBytes(root->values, before, sizeof(before));
    thread->OnRelease(&word, 1);

    // Overwrite the same span in an OCS that never commits.
    thread->OnAcquire(&word, 1);
    thread->StoreBytes(root->values, after, sizeof(after));
    ASSERT_EQ(std::memcmp(root->values, after, sizeof(after)), 0);
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.stores_undone, 5u) << "one record per captured word";
  EXPECT_EQ(std::memcmp(session.root()->values, before, sizeof(before)), 0)
      << "replay must restore the whole span byte-for-byte";
}

TEST_F(AtlasRecoveryTest, RangeRecordStraddlingRingWrapRecovers) {
  // Position the ring tail so the open OCS's batch of word records
  // straddles the physical end of the ring: its kAcquire and first
  // record at the last two indices, the other four wrapped to the
  // front. Counter slots are off so every record lands in the ring.
  std::uint64_t before[5];
  std::uint64_t after[5];
  for (std::uint64_t i = 0; i < 5; ++i) {
    before[i] = 0x5EED000000000000ULL + i;
    after[i] = 0xDEAD000000000000ULL + i;
  }
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly(),
                         /*use_counter_slots=*/false);
    AtlasThread* thread = session.runtime()->CurrentThread();
    AtlasThread peer(session.runtime(), 40);
    TestRoot* root = session.root();
    const std::uint64_t capacity =
        session.runtime()->area().entries_per_thread();

    // Commit the seed image of values[0..4].
    PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->StoreBytes(root->values, before, sizeof(before));
    thread->OnRelease(&word, 1);

    // Published filler OCSes keep their kAcquire, one record per word
    // and their kRelease: 3 entries for a one-word store, 4 for a
    // two-word one. Walk the tail to capacity - 2, taking 4-entry steps
    // until the rest is a multiple of 3.
    const ThreadLogHeader* slot =
        session.runtime()->area().slot(thread->thread_id());
    for (std::uint64_t i = 1; slot->tail.load() < capacity - 2; ++i) {
      const bool pair = (capacity - 2 - slot->tail.load()) % 3 != 0;
      RunPublishedOcs(&peer, thread, [&] {
        if (pair) {
          const std::uint64_t words[2] = {i, i};
          thread->StoreBytes(&root->values[6], words, sizeof(words));
        } else {
          thread->Store(&root->values[7], i);
        }
      });
    }
    ASSERT_EQ(slot->tail.load(), capacity - 2);
    ASSERT_LT(slot->head.load(), capacity - 2)
        << "the last filler must still be in the ring";

    // Open OCS: kAcquire at capacity-2, the first word record at
    // capacity-1, the other four wrapped to physical indices 0..3.
    thread->OnAcquire(&word, 3);
    thread->StoreBytes(root->values, after, sizeof(after));
    ASSERT_EQ(slot->tail.load(), capacity + 4) << "batch must straddle";
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_seen, 2u) << "the last filler and the open OCS";
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(stats.ocses_cascaded, 0u);
  EXPECT_EQ(stats.stores_undone, 5u);
  EXPECT_EQ(std::memcmp(session.root()->values, before, sizeof(before)), 0)
      << "wrapped word records must replay correctly";
  EXPECT_GT(session.root()->values[7], 0u) << "committed fillers survive";
}

// A fast-path commit rewinds the ring to its OCS's begin position, so
// back-to-back inline commits rewrite the same entries; a published OCS
// still advances the tail; a pass's head store for it names the
// position the next inline commit rewinds to (so that store cannot pass
// the tail even when it lands after the rewind); and a crash inside the
// next OCS rolls back exactly that OCS, whether its capture armed a
// counter slot or wrote a ring record.
TEST_F(AtlasRecoveryTest, InlineCommitsRewindAndTheNextOcsStillRollsBack) {
  for (const bool use_counter_slots : {true, false}) {
    SCOPED_TRACE(use_counter_slots ? "counter-slot capture"
                                   : "ring-record capture");
    ScopedRegionFile file(use_counter_slots ? "rewind_slots"
                                            : "rewind_ring");
    {
      Session session(file.path(), /*create=*/true);
      session.StartRuntime(PersistencePolicy::TspLogOnly(),
                           use_counter_slots);
      PMutex mutex(session.runtime());
      AtlasThread* thread = session.runtime()->CurrentThread();
      AtlasThread peer(session.runtime(), 40);
      TestRoot* root = session.root();
      const ThreadLogHeader* slot =
          session.runtime()->area().slot(thread->thread_id());

      const std::uint64_t begin = slot->tail.load();
      for (std::uint64_t i = 1; i <= 100; ++i) {
        PMutexLock lock(&mutex);
        thread->Store(&root->values[5], i);
        ASSERT_GT(slot->tail.load(), begin) << "the capture published";
      }
      EXPECT_EQ(thread->local_stats().fast_path_commits, 100u);
      EXPECT_EQ(slot->tail.load(), begin);
      EXPECT_EQ(slot->head.load(), begin);

      RunPublishedOcs(&peer, thread, [&] {
        thread->Store(&root->values[6], std::uint64_t{66});
      });
      const std::uint64_t published_end = slot->tail.load();
      EXPECT_GT(published_end, begin) << "a published OCS keeps its entries";
      EXPECT_EQ(slot->head.load(), begin);

      // A pass stores stable_ocs, then head = the published OCS's end;
      // an inline commit of this thread may run between the two stores.
      ASSERT_EQ(session.runtime()->StabilizeNow(), 1u);
      EXPECT_EQ(slot->head.load(), published_end);
      {
        PMutexLock lock(&mutex);
        thread->Store(&root->values[5], std::uint64_t{500});
      }
      EXPECT_EQ(thread->local_stats().fast_path_commits, 101u);
      EXPECT_EQ(slot->tail.load(), published_end)
          << "rewound to the published OCS's end";
      EXPECT_EQ(slot->head.load(), published_end);

      PLockWord word;
      thread->OnAcquire(&word, 3);
      thread->Store(&root->values[5], std::uint64_t{0xBAD});
      session.Crash();
    }
    Session session(file.path(), /*create=*/false);
    const RecoveryStats stats = session.Recover();
    EXPECT_EQ(stats.ocses_seen, 1u) << "only the open OCS is in the ring";
    EXPECT_EQ(stats.ocses_incomplete, 1u);
    EXPECT_EQ(stats.stores_undone, 1u);
    EXPECT_EQ(session.root()->values[5], 500u);
    EXPECT_EQ(session.root()->values[6], 66u);
  }
}

TEST_F(AtlasRecoveryTest, FreshObjectsInInterruptedOcsAreReclaimed) {
  // Stores into objects allocated inside the current OCS are elided
  // from the undo log: rollback makes them unreachable, and the
  // recovery GC reclaims them. After the full pipeline the heap must be
  // byte-accounted — no leaked spans, no undo work for the fresh data.
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();

    PLockWord word;
    thread->OnAcquire(&word, 1);
    for (std::uint64_t i = 0; i < 4; ++i) {
      void* obj = session.heap()->Alloc(64);
      ASSERT_NE(obj, nullptr);
      thread->NoteAlloc(obj, 0);
      std::uint64_t fill[8] = {i, i, i, i, i, i, i, i};
      thread->StoreBytes(obj, fill, sizeof(fill));
    }
    EXPECT_EQ(thread->local_stats().elided_fresh, 4u);
    EXPECT_EQ(thread->local_stats().undo_records, 0u);
    session.Crash();  // OCS never committed; objects never published
  }
  Session session(file_->path(), /*create=*/false);
  ASSERT_TRUE(session.heap()->needs_recovery());
  pheap::TypeRegistry registry;  // TestRoot embeds no pointers
  auto result = RecoverHeap(session.heap(), registry);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The interrupted OCS captured nothing (every store was fresh-elided)
  // so its bracket was never published: recovery sees no incomplete OCS
  // and undoes nothing.
  EXPECT_EQ(result->atlas.ocses_incomplete, 0u);
  EXPECT_EQ(result->atlas.stores_undone, 0u);
  // The GC reclaims the four unreachable 64-byte objects; only the
  // root remains live, and every arena byte is accounted for.
  EXPECT_EQ(result->gc.live_objects, 1u);
  const pheap::CheckReport report =
      pheap::CheckHeap(*session.heap(), registry);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.unaccounted_bytes, 0u) << "no leaked spans";
  EXPECT_EQ(report.reachable_objects, 1u);
}

TEST_F(AtlasRecoveryTest, LogFlushModeRecoversIdentically) {
  // The flush policy changes failure-free cost, not recovery semantics.
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::SyncFlush());
    AtlasThread* thread = session.runtime()->CurrentThread();
    TestRoot* root = session.root();
    PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->Store(&root->values[6], std::uint64_t{77});
    session.Crash();
  }
  Session session(file_->path(), /*create=*/false);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(stats.ocses_incomplete, 1u);
  EXPECT_EQ(session.root()->values[6], 0u);
}

TEST_F(AtlasRecoveryTest, HeapThatNeverUsedAtlasRecoversVacuously) {
  {
    auto heap = pheap::PersistentHeap::Create(file_->path(), Options());
    ASSERT_TRUE(heap.ok());
    (*heap)->set_root((*heap)->New<TestRoot>());
    // crash without ever starting Atlas
  }
  auto heap = pheap::PersistentHeap::Open(file_->path());
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE((*heap)->needs_recovery());
  auto stats = RecoverAtlas(heap->get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rings_scanned, 0u);
}

// The ring decoder's open OCSes — what `tsp_inspect trace` reports as
// undo_log_open — are exactly the OCSes recovery rolls back as
// incomplete: two threads crash inside OCSes while a third committed an
// OCS that depends on one of them (and is rolled back as cascaded).
TEST_F(AtlasRecoveryTest, DecoderOpenSetMatchesIncompleteRollbacks) {
  std::set<std::uint64_t> expected_open;
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    TestRoot* root = session.root();
    AtlasThread a(session.runtime(), 20);
    AtlasThread b(session.runtime(), 21);
    AtlasThread c(session.runtime(), 22);
    PLockWord outer_a, outer_b, shared;

    a.OnAcquire(&outer_a, 1);
    a.OnAcquire(&shared, 3);
    a.Store(&root->values[0], std::uint64_t{1});
    a.OnRelease(&shared, 3);  // nested release: a stays open
    b.OnAcquire(&outer_b, 2);
    b.Store(&root->values[1], std::uint64_t{2});
    c.OnAcquire(&shared, 3);  // depends on a's open OCS
    c.Store(&root->values[2], std::uint64_t{3});
    c.OnRelease(&shared, 3);
    expected_open = {PackThreadOcs(20, a.current_ocs()),
                     PackThreadOcs(21, b.current_ocs())};
    session.Crash();  // no CloseClean: a and b never committed
  }
  Session session(file_->path(), /*create=*/false);
  const AtlasArea area(
      session.heap()->runtime_area(),
      AtlasAreaSize(session.heap()->runtime_area_size()));
  std::set<std::uint64_t> decoded_open;
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    const DecodedRing ring =
        DecodeRing(area, t, area.slot(t)->head.load(),
                   area.slot(t)->tail.load());
    ASSERT_TRUE(ring.defects.empty()) << ring.defects.front();
    if (!ring.ocses.empty() && !ring.ocses.back().committed) {
      decoded_open.insert(PackThreadOcs(static_cast<std::uint16_t>(t),
                                        ring.ocses.back().id));
    }
  }
  EXPECT_EQ(decoded_open, expected_open);
  const RecoveryStats stats = session.Recover();
  EXPECT_EQ(std::set<std::uint64_t>(stats.rolled_back_incomplete.begin(),
                                    stats.rolled_back_incomplete.end()),
            decoded_open);
  EXPECT_EQ(stats.ocses_cascaded, 1u) << "c observed a's uncommitted data";
  for (int i = 0; i < 3; ++i) EXPECT_EQ(session.root()->values[i], 0u);
}

// Crashes a session inside an OCS, then rewrites the Atlas area header
// with `corrupt` (heap mapped, still awaiting recovery).
template <typename Corrupt>
void CrashThenCorruptHeader(const std::string& path,
                            std::size_t runtime_area_size, Corrupt corrupt) {
  pheap::RegionOptions options = Options();
  options.runtime_area_size = runtime_area_size;
  {
    auto heap = pheap::PersistentHeap::Create(path, options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    auto* root = (*heap)->New<TestRoot>();
    (*heap)->set_root(root);
    AtlasRuntime runtime(heap->get(), PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime.Initialize().ok());
    AtlasThread* thread = runtime.CurrentThread();
    PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->Store(&root->values[0], std::uint64_t{99});
  }  // crash: no CloseClean
  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE((*heap)->needs_recovery());
  corrupt(static_cast<AtlasAreaHeader*>((*heap)->runtime_area()));
}

// The flight recorder owns the tail of a large runtime area. A header
// whose rings reach into that reservation — but still fit the whole
// runtime area — must fail every reader's validation, so no scanner
// reads trace events as log entries.
TEST_F(AtlasRecoveryTest, RingsReachingIntoTraceReservationAreRefused) {
  constexpr std::size_t kRuntimeArea = 8u << 20;
  ASSERT_GT(obs::TraceReservationBytes(kRuntimeArea), 0u);
  CrashThenCorruptHeader(
      file_->path(), kRuntimeArea, [](AtlasAreaHeader* header) {
        // The same power-of-two rings, moved to end where the runtime
        // area ends: inside the trace reservation.
        const std::uint64_t ring_bytes = sizeof(LogEntry) *
                                         header->max_threads *
                                         header->entries_per_thread;
        ASSERT_GT(kRuntimeArea - ring_bytes, header->entries_offset);
        header->entries_offset = kRuntimeArea - ring_bytes;
      });
  auto heap = pheap::PersistentHeap::Open(file_->path());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE(AtlasArea::Validate((*heap)->runtime_area(), kRuntimeArea))
      << "the corrupt geometry fits the uncarved runtime area";
  const pheap::TypeRegistry registry;
  const pheap::CheckReport report = pheap::CheckHeap(**heap, registry);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find("undo-log: "), std::string::npos)
      << report.ToString();
  auto stats = RecoverAtlas(heap->get());
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
}

// One format version: an area stamped with the previous version is
// refused by recovery, by CheckHeap and by Attach, each naming both
// versions, and a clean Initialize reformats it.
TEST_F(AtlasRecoveryTest, PreviousFormatVersionIsRefusedThenReformatted) {
  const std::string previous =
      "format version " + std::to_string(kAtlasFormatVersion - 1);
  const std::string current =
      "only version " + std::to_string(kAtlasFormatVersion);
  CrashThenCorruptHeader(file_->path(), 2u << 20,
                         [](AtlasAreaHeader* header) {
                           header->version = kAtlasFormatVersion - 1;
                         });
  auto heap = pheap::PersistentHeap::Open(file_->path());
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  const pheap::TypeRegistry registry;
  const pheap::CheckReport report = pheap::CheckHeap(**heap, registry);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.ToString().find(previous), std::string::npos)
      << report.ToString();
  EXPECT_NE(report.ToString().find(current), std::string::npos);
  auto stats = RecoverAtlas(heap->get());
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find(previous), std::string::npos)
      << stats.status().ToString();
  EXPECT_NE(stats.status().message().find(current), std::string::npos);

  // Nothing can be rolled back from a format this build does not read;
  // declare the heap recovered, as an operator discarding the log would.
  (*heap)->FinishRecovery();
  AtlasRuntime joiner(heap->get(), PersistencePolicy::TspLogOnly());
  const Status attach = joiner.Attach();
  EXPECT_EQ(attach.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(attach.message().find(previous), std::string::npos)
      << attach.ToString();
  AtlasRuntime runtime(heap->get(), PersistencePolicy::TspLogOnly());
  ASSERT_TRUE(runtime.Initialize().ok());
  EXPECT_EQ(runtime.area().header()->version, kAtlasFormatVersion);
}

TEST_F(AtlasRecoveryTest, FullLifecycleAcrossCrashes) {
  // Session 1: create, commit work, crash mid-OCS.
  {
    Session session(file_->path(), /*create=*/true);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    PMutex mutex(session.runtime());
    {
      PMutexLock lock(&mutex);
      thread->Store(&session.root()->values[0], std::uint64_t{1});
    }
    PLockWord word;
    thread->OnAcquire(&word, 5);
    thread->Store(&session.root()->values[0], std::uint64_t{2});
    session.Crash();
  }
  // Session 2: recover, verify, commit more, crash again mid-OCS.
  {
    Session session(file_->path(), /*create=*/false);
    session.Recover();
    EXPECT_EQ(session.root()->values[0], 1u);
    session.StartRuntime(PersistencePolicy::TspLogOnly());
    AtlasThread* thread = session.runtime()->CurrentThread();
    PMutex mutex(session.runtime());
    {
      PMutexLock lock(&mutex);
      thread->Store(&session.root()->values[0], std::uint64_t{10});
    }
    PLockWord word;
    thread->OnAcquire(&word, 5);
    thread->Store(&session.root()->values[0], std::uint64_t{11});
    session.Crash();
  }
  // Session 3: recover and close cleanly.
  {
    Session session(file_->path(), /*create=*/false);
    session.Recover();
    EXPECT_EQ(session.root()->values[0], 10u);
    session.CloseCleanly();
  }
  // Session 4: clean open.
  Session session(file_->path(), /*create=*/false);
  EXPECT_FALSE(session.heap()->needs_recovery());
  EXPECT_EQ(session.root()->values[0], 10u);
}

}  // namespace
}  // namespace tsp::atlas
