// Leased sequence blocks: stamps for undo records come from per-thread
// blocks of the global counter (one contended fetch_add per block), with
// a Lamport-clock resync at lock acquisition. These tests pin down the
// ordering invariant recovery's reverse-stamp replay relies on: along
// every lock release→acquire edge, every stamp issued after the acquire
// exceeds every stamp issued before the release (and, per thread,
// stamps are monotone in program order).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "pheap/test_util.h"

namespace tsp::atlas {
namespace {

using pheap::testing::ScopedRegionFile;

class SeqLeaseTest : public ::testing::Test {
 protected:
  void Recreate(std::uint32_t seq_block_size) {
    runtime_.reset();
    heap_.reset();
    file_ = std::make_unique<ScopedRegionFile>("seqlease");
    pheap::RegionOptions options;
    options.size = 64 * 1024 * 1024;
    options.runtime_area_size = 16 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    AtlasRuntime::Options runtime_options;
    runtime_options.seq_block_size = seq_block_size;
    // These tests assert on raw ring kStore entries; counter slots
    // would absorb first stores into out-of-ring slots. The stamp
    // invariants hold either way (slots carry the same IssueSeq
    // stamps), but the ring is where we can scan them.
    runtime_options.use_counter_slots = false;
    runtime_ = std::make_unique<AtlasRuntime>(
        heap_.get(), PersistencePolicy::TspLogOnly(), runtime_options);
    ASSERT_TRUE(runtime_->Initialize().ok());
  }

  /// The (seq, payload) pairs of the kStore entries for `offset` in
  /// every ring's window [head, tail). A fast-path commit rewinds its
  /// ring past its OCS's records, so read them before the release.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> StoreStamps(
      std::uint64_t offset) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps;
    const AtlasArea& area = runtime_->area();
    for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
      const ThreadLogHeader* slot = area.slot(t);
      for (std::uint64_t i = slot->head.load(); i < slot->tail.load(); ++i) {
        const LogEntry* entry = area.entry(t, i);
        if (entry->kind == EntryKind::kStore &&
            entry->addr_offset == offset) {
          stamps.emplace_back(entry->seq, entry->payload);
        }
      }
    }
    return stamps;
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<AtlasRuntime> runtime_;
};

TEST_F(SeqLeaseTest, SingleThreadLeasesBlocksAndStaysMonotone) {
  Recreate(/*seq_block_size=*/8);
  auto* slots = static_cast<std::uint64_t*>(heap_->Alloc(20 * 8));
  std::memset(slots, 0, 20 * 8);
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  // Each OCS's record is read before its release rewinds the ring.
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 20; ++i) {
    PMutexLock lock(&mutex);
    thread->Store(&slots[i], std::uint64_t{1});
    const auto stamps = StoreStamps(heap_->region()->ToOffset(&slots[i]));
    ASSERT_EQ(stamps.size(), 1u);
    seqs.push_back(stamps[0].first);
    EXPECT_EQ(thread->seq_frontier(), seqs.back())
        << "the frontier is the highest stamp issued so far";
  }
  const AtlasRuntimeStats stats = runtime_->GetStats();
  EXPECT_EQ(stats.undo_records, 20u);
  // 20 stamps at 8 per block = 3 shared-counter fetch_adds (vs 20 with
  // the dense per-record scheme).
  EXPECT_EQ(stats.seq_blocks_leased, 3u);
  // Re-acquiring after our own release never discards the lease: the
  // published frontier is our own last stamp, strictly below seq_next_.
  EXPECT_EQ(stats.seq_resyncs, 0u);

  // Program-order stamps strictly increase across lease boundaries.
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_GT(seqs[i], seqs[i - 1]);
  }
  runtime_->UnregisterCurrentThread();
}

TEST_F(SeqLeaseTest, FrontierPropagatesThroughStampFreeOcs) {
  // The transitive hazard: A stamps x under L1; B observes A's frontier
  // via L1 but issues no stamps of its own, then releases L2; C holds an
  // old, still-unspent lease and acquires L2. C's stamps for x must
  // still exceed A's — the frontier must relay through B's stamp-free
  // OCS, and C must discard its stale lease (a resync).
  Recreate(/*seq_block_size=*/16);
  AtlasThread a(runtime_.get(), 10);
  AtlasThread b(runtime_.get(), 11);
  AtlasThread c(runtime_.get(), 12);
  auto* x = static_cast<std::uint64_t*>(heap_->Alloc(8));
  auto* z = static_cast<std::uint64_t*>(heap_->Alloc(8));
  *x = 0;
  *z = 0;
  PLockWord l1, l2, l3;

  c.OnAcquire(&l3, 3);  // C leases its block early (stamp for z)
  c.Store(z, std::uint64_t{1});
  c.OnRelease(&l3, 3);

  a.OnAcquire(&l1, 1);  // A leases a later block (stamp for x)
  a.Store(x, std::uint64_t{1});
  // Read A's record before its release rewinds A's ring.
  const auto a_stamps = StoreStamps(heap_->region()->ToOffset(x));
  a.OnRelease(&l1, 1);

  b.OnAcquire(&l1, 1);  // B adopts A's frontier, issues no stamps
  b.OnRelease(&l1, 1);
  b.OnAcquire(&l2, 2);  // ... and relays it through L2
  b.OnRelease(&l2, 2);

  c.OnAcquire(&l2, 2);  // C's unspent lease is now stale → resync
  c.Store(x, std::uint64_t{2});
  const auto c_stamps = StoreStamps(heap_->region()->ToOffset(x));
  c.OnRelease(&l2, 2);

  EXPECT_EQ(c.local_stats().seq_resyncs, 1u);
  EXPECT_GT(c.seq_frontier(), a.seq_frontier());
  ASSERT_EQ(a_stamps.size(), 1u);
  ASSERT_EQ(c_stamps.size(), 1u);
  EXPECT_EQ(a_stamps[0].second, 0u) << "A's record holds x's first value";
  EXPECT_EQ(c_stamps[0].second, 1u) << "C's record holds A's value";
  EXPECT_GT(c_stamps[0].first, a_stamps[0].first)
      << "C's undo record must replay before A's (reverse-stamp order)";
}

TEST_F(SeqLeaseTest, CrossThreadStampsFollowLockOrder) {
  // The satellite invariant test, materialized on one location: N real
  // threads increment one counter under one PMutex. Every pair of undo
  // records for the counter is connected by a release→acquire chain, so
  // sorting by stamp must reproduce the actual write order exactly —
  // the recorded old values, sorted by stamp, are 0, 1, 2, ... N*M-1.
  // The threads rotate in round-robin turns (an unfair std::mutex would
  // otherwise let one worker run its whole loop uninterrupted), so each
  // thread's unspent lease is repeatedly overtaken by the other threads'
  // stamps: every turn after the first forces a resync.
  Recreate(/*seq_block_size=*/16);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRounds = 125;
  constexpr std::uint64_t kPerRound = 8;
  auto* counter = static_cast<std::uint64_t*>(heap_->Alloc(8));
  *counter = 0;
  PMutex mutex(runtime_.get());
  std::atomic<std::uint64_t> turn{0};
  // Every OCS's (seq, old value) record, read under the mutex before
  // its release rewinds the ring.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps;
  const std::uint64_t offset = heap_->region()->ToOffset(counter);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, counter, offset, &mutex, &turn, &stamps,
                          t] {
      AtlasThread* thread = runtime_->CurrentThread();
      for (std::uint64_t r = 0; r < kRounds; ++r) {
        while (turn.load() % kThreads != static_cast<std::uint64_t>(t)) {
          std::this_thread::yield();
        }
        for (std::uint64_t i = 0; i < kPerRound; ++i) {
          PMutexLock lock(&mutex);
          thread->Store(counter, *counter + 1);
          const auto records = StoreStamps(offset);
          ASSERT_EQ(records.size(), 1u);
          stamps.push_back(records[0]);
        }
        turn.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(*counter, kThreads * kRounds * kPerRound);
  ASSERT_EQ(stamps.size(), kThreads * kRounds * kPerRound);
  std::sort(stamps.begin(), stamps.end());
  for (std::uint64_t i = 0; i < stamps.size(); ++i) {
    if (i > 0) {
      ASSERT_NE(stamps[i].first, stamps[i - 1].first)
          << "leased stamps must be unique";
    }
    ASSERT_EQ(stamps[i].second, i)
        << "stamp order diverged from lock (write) order at record " << i;
  }

  const AtlasRuntimeStats stats = runtime_->GetStats();
  EXPECT_EQ(stats.undo_records, kThreads * kRounds * kPerRound);
  EXPECT_LT(stats.seq_blocks_leased, stats.undo_records)
      << "leasing must amortize the shared fetch_add";
  EXPECT_GT(stats.seq_resyncs, 0u)
      << "rotating turns must overtake every thread's unspent lease";
}

TEST_F(SeqLeaseTest, BlockSizeOneMatchesDenseScheme) {
  // The ablation setting: K=1 leases one stamp per undo record straight
  // from the shared counter, reproducing the dense pre-lease behavior.
  Recreate(/*seq_block_size=*/1);
  auto* slots = static_cast<std::uint64_t*>(heap_->Alloc(10 * 8));
  std::memset(slots, 0, 10 * 8);
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  for (int i = 0; i < 10; ++i) {
    PMutexLock lock(&mutex);
    thread->Store(&slots[i], std::uint64_t{1});
  }
  const AtlasRuntimeStats stats = runtime_->GetStats();
  EXPECT_EQ(stats.seq_blocks_leased, stats.undo_records);
  runtime_->UnregisterCurrentThread();
}

TEST_F(SeqLeaseTest, StoreBytesPublishesOneBatch) {
  Recreate(/*seq_block_size=*/64);
  auto* blob = static_cast<char*>(heap_->Alloc(64));
  std::memset(blob, 0, 64);
  PMutex mutex(runtime_.get());
  AtlasThread* thread = runtime_->CurrentThread();
  char data[40];
  for (int i = 0; i < 40; ++i) data[i] = static_cast<char>(i + 1);
  {
    PMutexLock lock(&mutex);
    thread->StoreBytes(blob, data, 40);
  }
  for (int i = 0; i < 40; ++i) EXPECT_EQ(blob[i], static_cast<char>(i + 1));
  const AtlasRuntimeStats stats = runtime_->GetStats();
  // 40 bytes = 5 word records, all stamped from one leased block.
  EXPECT_EQ(stats.undo_records, 5u);
  EXPECT_EQ(stats.seq_blocks_leased, 1u);
  EXPECT_EQ(stats.batched_publishes, 1u)
      << "one tail advance for the whole guarded store";
  runtime_->UnregisterCurrentThread();
}

}  // namespace
}  // namespace tsp::atlas
