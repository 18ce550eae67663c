#include "atlas/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "atlas/pmutex.h"
#include "common/flush.h"
#include "common/random.h"
#include "obs/recorder.h"
#include "obs/trace_reader.h"
#include "pheap/test_util.h"

namespace tsp::atlas {
namespace {

using pheap::testing::ScopedRegionFile;

pheap::RegionOptions SmallOptions(std::size_t runtime_kb = 2048) {
  pheap::RegionOptions options;
  options.size = 32 * 1024 * 1024;
  options.runtime_area_size = runtime_kb * 1024;
  return options;
}

// The kinds of the entries in a thread's ring window [head, tail). A
// fast-path commit rewinds the ring past its OCS's entries, so read
// them while the OCS is still open.
std::vector<EntryKind> RingKinds(const AtlasRuntime& runtime,
                                 std::uint16_t thread_id) {
  const AtlasArea& area = runtime.area();
  const ThreadLogHeader* slot = area.slot(thread_id);
  std::vector<EntryKind> kinds;
  for (std::uint64_t i = slot->head.load(); i < slot->tail.load(); ++i) {
    kinds.push_back(area.entry(thread_id, i)->kind);
  }
  return kinds;
}

std::size_t CountKind(const std::vector<EntryKind>& kinds, EntryKind kind) {
  std::size_t n = 0;
  for (EntryKind k : kinds) {
    if (k == kind) ++n;
  }
  return n;
}

// Finds the armed counter slot covering `offset`, or nullptr. Single
// stores into an OCS land here (FliT path) instead of in the ring.
const CounterSlot* FindArmedSlot(const AtlasRuntime& runtime,
                                 std::uint16_t thread_id,
                                 std::uint64_t offset) {
  const AtlasArea& area = runtime.area();
  const CounterSlot* slots = area.counter_slots(thread_id);
  for (std::uint32_t i = 0; i < area.counter_slots_per_thread(); ++i) {
    if (slots[i].addr_offset == offset) return &slots[i];
  }
  return nullptr;
}

class AtlasRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Recreate(PersistencePolicy::TspLogOnly()); }

  void Recreate(PersistencePolicy policy, std::size_t runtime_kb = 2048) {
    runtime_.reset();
    heap_.reset();
    file_ = std::make_unique<ScopedRegionFile>("atlasrt");
    auto heap = pheap::PersistentHeap::Create(
        file_->path(), SmallOptions(runtime_kb));
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    runtime_ = std::make_unique<AtlasRuntime>(heap_.get(), policy);
    ASSERT_TRUE(runtime_->Initialize().ok());
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<AtlasRuntime> runtime_;
};

TEST_F(AtlasRuntimeTest, StoreOutsideOcsIsNotLogged) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  AtlasThread* thread = runtime_->CurrentThread();
  thread->Store(value, std::uint64_t{42});
  EXPECT_EQ(*value, 42u);
  EXPECT_TRUE(RingKinds(*runtime_, thread->thread_id()).empty());
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, OcsLogsAcquireStoreRelease) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  *value = 1;
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  const ThreadLogHeader* ring = runtime_->area().slot(thread->thread_id());
  const std::uint64_t begin = ring->tail.load();
  {
    PMutexLock lock(&mutex);
    EXPECT_TRUE(thread->in_ocs());
    thread->Store(value, std::uint64_t{2});
    // The single store is absorbed by a FliT counter slot, so the ring
    // carries only the published kAcquire (arming the slot publishes
    // the staged bracket so recovery can attribute the capture).
    const std::vector<EntryKind> kinds =
        RingKinds(*runtime_, thread->thread_id());
    ASSERT_EQ(kinds.size(), 1u);
    EXPECT_EQ(kinds[0], EntryKind::kAcquire);
  }
  EXPECT_FALSE(thread->in_ocs());
  EXPECT_EQ(*value, 2u);
  // The fast-path commit elides the kRelease and rewinds the ring to
  // the OCS's begin position, dropping its kAcquire.
  EXPECT_EQ(ring->tail.load(), begin);
  EXPECT_EQ(ring->head.load(), begin);
  const CounterSlot* slot = FindArmedSlot(
      *runtime_, thread->thread_id(), heap_->region()->ToOffset(value));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->old_value, 1u);
  EXPECT_EQ(slot->version.load() % 2, 0u) << "slot publish completed";
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, FirstStorePerLocationPerOcs) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  {
    PMutexLock lock(&mutex);
    for (std::uint64_t i = 0; i < 100; ++i) thread->Store(value, i);
    // Only the first store to a location per OCS captures an old value;
    // with the FliT path on, that capture arms a counter slot and the 99
    // repeats hit the slot without touching the ring.
    EXPECT_EQ(CountKind(RingKinds(*runtime_, thread->thread_id()),
                        EntryKind::kStore),
              0u);
  }
  EXPECT_EQ(thread->local_stats().flit_rearms, 1u);
  EXPECT_EQ(thread->local_stats().flit_repeat_hits, 99u);

  // A new OCS captures the location again: the prior occupant is
  // stable (fast-path commit), so the slot is simply re-armed.
  {
    PMutexLock lock(&mutex);
    thread->Store(value, std::uint64_t{7});
  }
  EXPECT_EQ(thread->local_stats().flit_rearms, 2u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, UndoEntryCarriesOldValue) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  *value = 0xDEAD;
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  {
    PMutexLock lock(&mutex);
    thread->Store(value, std::uint64_t{0xBEEF});
  }
  // The undo data for a slot-absorbed store lives in the counter slot:
  // old value, stamp, and owning OCS, all persisted before the guarded
  // store overwrites the location.
  const CounterSlot* slot = FindArmedSlot(
      *runtime_, thread->thread_id(), heap_->region()->ToOffset(value));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->old_value, 0xDEADu);
  EXPECT_GT(slot->seq, 0u);
  EXPECT_GT(slot->ocs_id, 0u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, TspModeIssuesZeroFlushes) {
  GlobalFlushStats().Reset();
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  for (std::uint64_t i = 0; i < 100; ++i) {
    PMutexLock lock(&mutex);
    thread->Store(value, i);
  }
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u)
      << "TSP log-only mode must never flush";
  EXPECT_EQ(GlobalFlushStats().fences.load(), 0u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, SyncFlushModeFlushesEveryEntry) {
  Recreate(PersistencePolicy::SyncFlush(FlushInstruction::kClflush));
  GlobalFlushStats().Reset();
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  {
    PMutexLock lock(&mutex);
    thread->Store(value, std::uint64_t{1});
  }
  // Four write-backs, each fenced:
  //   1. the counter slot the store arms (the slot is the undo record
  //      and must be durable before the guarded store);
  //   2. the staged kAcquire entry that arming publishes, durable
  //      before tail covers it;
  //   3. the ring tail that publishes it, durable before the guarded
  //      store;
  //   4. the log header the fast-path commit rewinds (tail, head and
  //      stable_ocs share its line), durable before the lock word
  //      vouches for the OCS's stability.
  // The fast-path commit elides the kRelease entry.
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 4u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 4u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, StoreBytesSplitsLargeRanges) {
  // Counter slots off, so every captured word lands in the ring.
  runtime_.reset();
  AtlasRuntime::Options options;
  options.use_counter_slots = false;
  runtime_ = std::make_unique<AtlasRuntime>(
      heap_.get(), PersistencePolicy::TspLogOnly(), options);
  ASSERT_TRUE(runtime_->Initialize().ok());
  auto* blob = static_cast<char*>(heap_->Alloc(64));
  std::memset(blob, 0, 64);
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  char data[20];
  for (int i = 0; i < 20; ++i) data[i] = static_cast<char>(i + 1);
  {
    PMutexLock lock(&mutex);
    thread->StoreBytes(blob, data, 20);
    // 20 bytes widen to a 24-byte word span → one word record per word,
    // each carrying that word's old value, published in one batch. Read
    // before the commit rewinds the ring past them.
    const std::vector<EntryKind> kinds =
        RingKinds(*runtime_, thread->thread_id());
    EXPECT_EQ(CountKind(kinds, EntryKind::kStore), 3u);
    const AtlasArea& area = runtime_->area();
    const ThreadLogHeader* ring = area.slot(thread->thread_id());
    std::uint64_t expected_offset = heap_->region()->ToOffset(blob);
    for (std::uint64_t i = ring->head.load(); i < ring->tail.load(); ++i) {
      const LogEntry* entry = area.entry(thread->thread_id(), i);
      if (entry->kind != EntryKind::kStore) continue;
      EXPECT_EQ(entry->addr_offset, expected_offset);
      EXPECT_EQ(entry->size, 8u);
      EXPECT_EQ(entry->payload, 0u) << "old value of a zeroed word";
      expected_offset += 8;
    }
  }
  for (int i = 0; i < 20; ++i) EXPECT_EQ(blob[i], static_cast<char>(i + 1));
  EXPECT_EQ(thread->local_stats().undo_records, 3u);
  EXPECT_EQ(thread->local_stats().batched_publishes, 1u);
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, IndependentOcsesTrimAtCommit) {
  // A single-threaded sequence of dependency-free OCSes takes the
  // commit fast path: each OCS is immediately stable and the ring never
  // accumulates (no stability pass involved at all).
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  for (std::uint64_t i = 0; i < 10; ++i) {
    PMutexLock lock(&mutex);
    thread->Store(value, i);
  }
  EXPECT_EQ(runtime_->stability()->PendingCount(), 0u);
  const ThreadLogHeader* slot =
      runtime_->area().slot(thread->thread_id());
  EXPECT_EQ(slot->head.load(), slot->tail.load()) << "ring fully trimmed";
  EXPECT_EQ(slot->stable_ocs.load(), slot->committed_ocs.load());
  runtime_->UnregisterCurrentThread();
}

TEST_F(AtlasRuntimeTest, DependentOcsNotTrimmedWhileDependeeOpen) {
  // Thread contexts driven manually for a deterministic interleaving.
  AtlasThread a(runtime_.get(), 10);
  AtlasThread b(runtime_.get(), 11);
  auto* x = static_cast<std::uint64_t*>(heap_->Alloc(8));
  auto* y = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PLockWord outer_word, shared_word;

  a.OnAcquire(&outer_word, 1);   // A's OCS opens
  a.OnAcquire(&shared_word, 2);  // nested
  a.Store(x, std::uint64_t{1});
  a.OnRelease(&shared_word, 2);  // inner release: A still open

  b.OnAcquire(&shared_word, 2);  // B depends on open A
  b.Store(y, std::uint64_t{2});
  b.OnRelease(&shared_word, 2);  // B commits

  runtime_->StabilizeNow();
  EXPECT_EQ(runtime_->stability()->PendingCount(), 1u)
      << "B stays unstable while A is open";
  EXPECT_EQ(runtime_->area().slot(11)->stable_ocs.load(), 0u);

  a.OnRelease(&outer_word, 1);  // A commits
  runtime_->StabilizeNow();
  EXPECT_EQ(runtime_->stability()->PendingCount(), 0u);
  EXPECT_GT(runtime_->area().slot(11)->stable_ocs.load(), 0u);
}

TEST_F(AtlasRuntimeTest, CommittedDependencyCycleStabilizes) {
  // X and D each acquire a lock the other released while both were
  // open: a committed dependency cycle. The global fixed point must
  // still classify both as stable (neither can roll back).
  AtlasThread x(runtime_.get(), 12);
  AtlasThread d(runtime_.get(), 13);
  auto* vx = static_cast<std::uint64_t*>(heap_->Alloc(8));
  auto* vd = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PLockWord ox, od, l1, l2;

  x.OnAcquire(&ox, 1);  // X opens
  d.OnAcquire(&od, 2);  // D opens
  x.OnAcquire(&l1, 3);
  x.Store(vx, std::uint64_t{1});
  x.OnRelease(&l1, 3);  // X releases l1 (inner)
  d.OnAcquire(&l2, 4);
  d.Store(vd, std::uint64_t{2});
  d.OnRelease(&l2, 4);  // D releases l2 (inner)
  d.OnAcquire(&l1, 3);  // D ← X
  d.OnRelease(&l1, 3);
  x.OnAcquire(&l2, 4);  // X ← D
  x.OnRelease(&l2, 4);
  x.OnRelease(&ox, 1);  // X commits
  d.OnRelease(&od, 2);  // D commits

  runtime_->StabilizeNow();
  EXPECT_EQ(runtime_->stability()->PendingCount(), 0u)
      << "a committed cycle with no open entry point is jointly stable";
}

TEST_F(AtlasRuntimeTest, RingWrapsUnderPruning) {
  Recreate(PersistencePolicy::TspLogOnly(), /*runtime_kb=*/192);
  const std::uint64_t capacity = runtime_->area().entries_per_thread();
  ASSERT_LT(capacity, 1000u) << "test needs a small ring";
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  AtlasThread* thread = runtime_->CurrentThread();
  const ThreadLogHeader* slot = runtime_->area().slot(thread->thread_id());
  AtlasThread peer(runtime_.get(), 40);
  // Our OCS takes a lock the peer released mid-OCS, so it depends on an
  // open OCS and publishes instead of rewinding the ring. Fresh lock
  // words keep the peer free of dependencies on us, so its commit is
  // inline and runs no pass.
  const auto take_from_open_peer = [&](PLockWord* outer, std::uint64_t v) {
    PLockWord shared;
    peer.OnAcquire(outer, 91);
    peer.OnAcquire(&shared, 92);
    peer.OnRelease(&shared, 92);
    thread->OnAcquire(&shared, 92);
    thread->Store(value, v);
    thread->OnRelease(&shared, 92);
  };

  // First move the window to the middle of the ring: each publish's
  // pass trims its predecessor, whose peer has committed by then.
  std::uint64_t i = 0;
  while (slot->tail.load() < capacity / 2) {
    PLockWord outer;
    take_from_open_peer(&outer, i++);
    peer.OnRelease(&outer, 91);
  }

  // Then a chain no publish's pass can trim: the peer stays open, so
  // our next OCS is tainted through it and every later one through
  // program order, each keeping 2-3 entries. The committer commits the
  // peer once the ring is full and we have stopped in it; only the full
  // ring's own pass can then free room.
  PLockWord outer;
  take_from_open_peer(&outer, i++);
  std::atomic<bool> saw_full{false};
  std::atomic<std::uint64_t> head_when_full{0};
  std::thread committer([&] {
    std::uint64_t last_tail = 0;
    for (int still = 0; still < 20;) {
      const std::uint64_t head = slot->head.load();
      const std::uint64_t tail = slot->tail.load();
      still = tail - head + 3 >= capacity && tail == last_tail ? still + 1 : 0;
      last_tail = tail;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    head_when_full.store(slot->head.load());
    saw_full.store(true);
    peer.OnRelease(&outer, 91);
  });
  PMutex mutex(runtime_.get());
  const std::uint64_t last = i + 2 * capacity;
  for (; i <= last; ++i) {
    PMutexLock lock(&mutex);
    thread->Store(value, i);
  }
  committer.join();
  EXPECT_TRUE(saw_full.load()) << "the chain never filled the ring";
  EXPECT_EQ(peer.local_stats().published_commits, 0u);
  EXPECT_EQ(*value, last);
  EXPECT_GT(slot->head.load(), head_when_full.load())
      << "the full ring's pass must move head";
  EXPECT_GT(slot->tail.load(), capacity) << "the chain must wrap the ring";
  runtime_->UnregisterCurrentThread();
}

// Head never passes tail while the OCSes of several threads publish
// (nested locks: a thread taking a lock another released mid-OCS
// records a dependency), commit inline and are pruned concurrently by
// the passes the publishing threads run. A pass's head store for a
// published OCS names the position the next inline commit of that
// thread rewinds to, and head only moves forward, so a sampler that
// reads head before tail must never see it ahead.
TEST_F(AtlasRuntimeTest, HeadNeverPassesTailUnderThePruner) {
  constexpr int kThreads = 3;
  constexpr std::uint64_t kLocks = 4;
  constexpr int kOcses = 5000;
  auto* words = static_cast<std::uint64_t*>(heap_->Alloc(kLocks * 8));
  std::vector<std::unique_ptr<PMutex>> locks;
  for (std::uint64_t l = 0; l < kLocks; ++l) {
    locks.push_back(std::make_unique<PMutex>(runtime_.get()));
  }
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> violations{0};
  std::thread sampler([this, &done, &violations] {
    const AtlasArea& area = runtime_->area();
    while (!done.load()) {
      for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
        const std::uint64_t head = area.slot(t)->head.load();
        if (head > area.slot(t)->tail.load()) violations.fetch_add(1);
      }
    }
  });
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([this, w, words, &locks, &ready] {
      AtlasThread* thread = runtime_->CurrentThread();
      Random rng(100 + w);
      // Start together, so the threads' OCSes overlap.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kOcses; ++i) {
        // Ordered nesting (outer < inner) keeps the lock graph acyclic.
        const std::uint64_t outer = rng.Uniform(kLocks - 1);
        const std::uint64_t inner = outer + 1 + rng.Uniform(kLocks - 1 - outer);
        PMutexLock lock(locks[outer].get(), thread);
        thread->Store(&words[outer], words[outer] + 1);
        if (i % 2 == 0) {
          {
            PMutexLock nested(locks[inner].get(), thread);
            thread->Store(&words[inner], words[inner] + 1);
          }
          // Hold the OCS open past the nested release, so a thread
          // waiting for `inner` takes it from an unstable releaser.
          std::this_thread::yield();
        }
      }
      runtime_->UnregisterCurrentThread();
    });
  }
  for (std::thread& worker : workers) worker.join();
  done.store(true);
  sampler.join();
  EXPECT_EQ(violations.load(), 0u);
  const AtlasRuntimeStats stats = runtime_->GetStats();
  EXPECT_GT(stats.published_commits, 0u);
  EXPECT_GT(stats.fast_path_commits, 0u);
}

// The flight recorder's open span tracks the ring's open OCS at every
// commit: a kill before the commit (the watermark store) leaves both
// open, a kill after it leaves both closed. A post-mortem reader sees
// the bytes read here, for inline, nested and published commits.
TEST_F(AtlasRuntimeTest, CommitWatermarkClosesTheOpenSpan) {
#ifdef TSP_OBS_DISABLED
  GTEST_SKIP() << "flight recorder compiled out (TSP_OBS=OFF)";
#else
  const bool trace_was_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  Recreate(PersistencePolicy::TspLogOnly(), /*runtime_kb=*/8192);
  ASSERT_NE(heap_->recorder(), nullptr);
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex outer(runtime_.get());
  PMutex shared(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  const std::uint16_t id = thread->thread_id();
  const auto open_spans = [this, id] {
    std::vector<std::uint64_t> open;
    const obs::TraceReader reader(heap_->runtime_area(),
                                  heap_->runtime_area_size());
    for (const obs::OpenOcsSpan& span : reader.OpenOcsSpans()) {
      if (UnpackThread(span.packed_ocs) == id) open.push_back(span.packed_ocs);
    }
    return open;
  };
  const auto ring_open = [this, id] {
    const ThreadLogHeader* slot = runtime_->area().slot(id);
    const DecodedRing ring = DecodeRing(runtime_->area(), id,
                                        slot->head.load(), slot->tail.load());
    return !ring.ocses.empty() && !ring.ocses.back().committed;
  };
  const auto expect_open = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_EQ(open_spans(), std::vector<std::uint64_t>{PackThreadOcs(
                                id, thread->current_ocs())});
    EXPECT_TRUE(ring_open());
  };
  const auto expect_closed = [&](const char* when) {
    SCOPED_TRACE(when);
    EXPECT_TRUE(open_spans().empty());
    EXPECT_FALSE(ring_open());
  };

  {
    PMutexLock lock(&outer);
    thread->Store(value, std::uint64_t{1});
    expect_open("inline, before the commit");
  }
  expect_closed("inline, after the commit");
  EXPECT_EQ(thread->local_stats().fast_path_commits, 1u);

  {
    PMutexLock lock(&outer);
    {
      PMutexLock nested(&shared);
      thread->Store(value, std::uint64_t{2});
    }
    expect_open("nested, after the inner release");
  }
  expect_closed("nested, after the outer release");

  // A peer thread releases `shared` while its OCS stays open, so this
  // thread's next OCS depends on it and publishes.
  std::atomic<int> phase{0};
  std::thread peer([this, &outer, &shared, &phase] {
    AtlasThread* peer_thread = runtime_->CurrentThread();
    outer.lock();
    shared.lock();
    shared.unlock();
    phase.store(1);
    while (phase.load() != 2) std::this_thread::yield();
    outer.unlock();
    EXPECT_EQ(peer_thread->local_stats().fast_path_commits, 1u);
    runtime_->UnregisterCurrentThread();
  });
  while (phase.load() != 1) std::this_thread::yield();
  {
    PMutexLock lock(&shared);
    thread->Store(value, std::uint64_t{3});
    expect_open("published, before the commit");
  }
  expect_closed("published, after the commit");
  EXPECT_EQ(thread->local_stats().published_commits, 1u);
  phase.store(2);
  peer.join();
  runtime_->UnregisterCurrentThread();
  obs::SetTraceEnabled(trace_was_enabled);
#endif  // TSP_OBS_DISABLED
}

// Stability passes run on the threads that publish, so a logging
// runtime adds no thread to the process.
TEST_F(AtlasRuntimeTest, InitializeStartsNoThread) {
  const auto task_count = [] {
    std::size_t tasks = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++tasks;
    }
    return tasks;
  };
  runtime_.reset();
  const std::size_t before = task_count();
  runtime_ = std::make_unique<AtlasRuntime>(heap_.get(),
                                            PersistencePolicy::TspLogOnly());
  ASSERT_TRUE(runtime_->Initialize().ok());
  EXPECT_EQ(task_count(), before);
}

TEST_F(AtlasRuntimeTest, InitializeFailsOnUncleanHeap) {
  // Simulate: heap closed without CloseClean, then reopened.
  const std::string path = file_->path();
  runtime_.reset();
  heap_.reset();  // unclean close
  auto reopened = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->needs_recovery());
  AtlasRuntime runtime(reopened->get(), PersistencePolicy::TspLogOnly());
  EXPECT_EQ(runtime.Initialize().code(), StatusCode::kFailedPrecondition);
}

TEST_F(AtlasRuntimeTest, ThreadsGetDistinctSlots) {
  constexpr int kThreads = 8;
  std::vector<std::uint16_t> ids(kThreads, 0xFFFF);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, i, &ids] {
      AtlasThread* thread = runtime_->CurrentThread();
      ids[i] = thread->thread_id();
      EXPECT_EQ(runtime_->CurrentThread(), thread) << "TLS caching";
      runtime_->UnregisterCurrentThread();
    });
    threads.back().join();  // sequential: slots are recycled
  }
  for (int i = 0; i < kThreads; ++i) EXPECT_EQ(ids[i], 0u);

  // Concurrent registration yields distinct slots.
  std::vector<std::uint16_t> concurrent_ids(kThreads, 0xFFFF);
  threads.clear();
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([this, i, &concurrent_ids] {
      concurrent_ids[i] = runtime_->CurrentThread()->thread_id();
    });
  }
  for (auto& t : threads) t.join();
  std::sort(concurrent_ids.begin(), concurrent_ids.end());
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_NE(concurrent_ids[i - 1], concurrent_ids[i]);
  }
}

TEST_F(AtlasRuntimeTest, ConcurrentWorkloadMaintainsValues) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIterations = 2000;
  auto* counters =
      static_cast<std::uint64_t*>(heap_->Alloc(kThreads * 8));
  std::memset(counters, 0, kThreads * 8);
  PMutex mutex(runtime_.get());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, counters, &mutex] {
      AtlasThread* thread = runtime_->CurrentThread();
      for (std::uint64_t i = 1; i <= kIterations; ++i) {
        PMutexLock lock(&mutex);
        thread->Store(&counters[t], i);
      }
      runtime_->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(counters[t], kIterations);
  }
}

// With counter slots off every capture appends a ring record, repeats
// of one word included, so the ring bounds how many stores one OCS can
// make. Past it the runtime stops with a FATAL naming the capacity,
// never wrapping over the OCS's own undo records.
using AtlasRuntimeDeathTest = AtlasRuntimeTest;

TEST_F(AtlasRuntimeDeathTest, OneOcsRepeatingAStorePastTheRingIsFatal) {
  runtime_.reset();
  AtlasRuntime::Options options;
  options.use_counter_slots = false;
  runtime_ = std::make_unique<AtlasRuntime>(
      heap_.get(), PersistencePolicy::TspLogOnly(), options);
  ASSERT_TRUE(runtime_->Initialize().ok());
  const std::uint64_t capacity = runtime_->area().ring_mask() + 1;
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  EXPECT_DEATH(
      {
        AtlasThread* thread = runtime_->CurrentThread();
        PMutexLock lock(&mutex);
        for (std::uint64_t i = 0; i <= capacity; ++i) {
          thread->Store(value, i);
        }
      },
      "Atlas log ring overflow: one OCS wrote more than " +
          std::to_string(capacity) + " log entries");
}

}  // namespace
}  // namespace tsp::atlas
