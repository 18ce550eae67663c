#include "lockfree/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace tsp::lockfree {
namespace {

TEST(EpochTest, RetiredNodesEventuallyFreed) {
  std::atomic<int> freed{0};
  {
    EpochManager manager([&freed](void*) { ++freed; });
    int dummy[10];
    for (int i = 0; i < 10; ++i) manager.Retire(&dummy[i]);
    // Nothing is freed until epochs pass (buckets recycle after +3).
    for (int round = 0; round < 200 && freed.load() < 10; ++round) {
      EpochManager::Guard guard(&manager);
      manager.Retire(&dummy[0]);  // drive epochs; re-retire is a test hack
    }
    manager.UnregisterCurrentThread();
  }
  // Destruction frees everything left in limbo.
  EXPECT_GE(freed.load(), 10);
}

TEST(EpochTest, GuardBlocksReclamation) {
  std::atomic<int> freed{0};
  EpochManager manager([&freed](void*) { ++freed; });
  int target = 0;

  std::thread holder;
  std::atomic<bool> entered{false}, release{false};
  holder = std::thread([&] {
    EpochManager::Guard guard(&manager);
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    // Guard destroyed on exit.
  });
  while (!entered.load()) std::this_thread::yield();

  // Retire from the main thread while the holder pins its epoch.
  manager.Retire(&target);
  const std::uint64_t epoch_before = manager.global_epoch();
  for (int i = 0; i < 1000; ++i) {
    EpochManager::Guard guard(&manager);  // spins epochs if possible
  }
  // The holder never advanced, so the epoch moved at most once and the
  // retired pointer must not have been freed.
  EXPECT_LE(manager.global_epoch(), epoch_before + 1);
  EXPECT_EQ(freed.load(), 0);

  release.store(true);
  holder.join();
  manager.UnregisterCurrentThread();
  EXPECT_EQ(freed.load(), 0) << "freed only via bucket reuse or destruction";
}

TEST(EpochTest, EpochAdvancesWhenAllQuiesce) {
  EpochManager manager([](void*) {});
  const std::uint64_t start = manager.global_epoch();
  int dummy;
  for (int i = 0; i < 64 * 4; ++i) {
    EpochManager::Guard guard(&manager);
    manager.Retire(&dummy);
  }
  EXPECT_GT(manager.global_epoch(), start);
  manager.UnregisterCurrentThread();
}

TEST(EpochTest, LimboCountTracksRetirements) {
  EpochManager manager([](void*) {});
  int dummy[5];
  for (auto& d : dummy) manager.Retire(&d);
  EXPECT_EQ(manager.LimboCount(), 5u);
  manager.UnregisterCurrentThread();
}

TEST(EpochTest, ManyThreadsChurnSafely) {
  // Stress: allocate real memory, retire it, and rely on the epochs to
  // delay frees past all readers. ASAN-style validation: readers write
  // a canary through the pointer they hold; premature free would be
  // detected by the deleter poisoning memory.
  struct Node {
    std::atomic<std::uint64_t> canary{0xABCD};
  };
  std::atomic<std::uint64_t> poison_reads{0};
  EpochManager manager([](void* p) {
    static_cast<Node*>(p)->canary.store(0xDEAD, std::memory_order_release);
    delete static_cast<Node*>(p);
  });

  std::atomic<Node*> shared{new Node};
  constexpr int kIterations = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        EpochManager::Guard guard(&manager);
        Node* node = shared.load(std::memory_order_acquire);
        if (node->canary.load(std::memory_order_acquire) == 0xDEAD) {
          poison_reads.fetch_add(1);
        }
      }
      manager.UnregisterCurrentThread();
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      Node* fresh = new Node;
      Node* old = shared.exchange(fresh, std::memory_order_acq_rel);
      EpochManager::Guard guard(&manager);
      manager.Retire(old);
    }
    manager.UnregisterCurrentThread();
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(poison_reads.load(), 0u)
      << "a reader observed memory freed under its feet";
  delete shared.load();
}

// Retire accounting lives in each thread's slot: GetStats must sum
// every registered slot, not only the caller's.
TEST(EpochTest, StatsSumEveryThreadsRetirements) {
  EpochManager manager([](void*) {});
  constexpr int kThreads = 4;
  constexpr std::uint64_t kRetiresPerThread = 1000;
  std::atomic<int> finished{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int dummy;
      for (std::uint64_t i = 0; i < kRetiresPerThread * (t + 1); ++i) {
        EpochManager::Guard guard(&manager);
        manager.Retire(&dummy);
      }
      finished.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      manager.UnregisterCurrentThread();
    });
  }
  while (finished.load() < kThreads) std::this_thread::yield();
  // Every thread still holds its slot.
  const EpochStats stats = manager.GetStats();
  EXPECT_EQ(stats.nodes_retired, kRetiresPerThread * (1 + 2 + 3 + 4));
  EXPECT_EQ(stats.nodes_retired - stats.nodes_freed, manager.LimboCount());
  EXPECT_GT(stats.limbo_peak, 0u);
  release.store(true);
  for (auto& thread : threads) thread.join();
}

// A thread that unregisters hands its slot, with the slot's retire
// count, to the next thread. 256 sequential threads then share one
// slot, whose count reaches the advance cadence: if each thread linked
// a fresh slot instead, no slot would ever attempt an advance and all
// 256 nodes would stay in limbo.
TEST(EpochTest, SlotsRecycledAfterUnregister) {
  EpochManager manager([](void*) {});
  int dummy;
  for (int i = 0; i < 256; ++i) {
    std::thread([&manager, &dummy] {
      {
        EpochManager::Guard guard(&manager);
        manager.Retire(&dummy);
      }
      manager.UnregisterCurrentThread();
    }).join();
  }
  const EpochStats stats = manager.GetStats();
  EXPECT_EQ(stats.nodes_retired, 256u);
  EXPECT_GT(stats.nodes_freed, 0u);
}

// The batching contract: advances are attempted every
// kAdvanceEveryRetires retirements (not per retire), limbo stays
// bounded by the grace window times the cadence, and everything retired
// is eventually freed.
TEST(EpochTest, BatchedAdvanceBoundsLimboAndAmortizesScans) {
  std::atomic<std::uint64_t> freed{0};
  constexpr std::uint64_t kRetires = 8192;
  {
    EpochManager manager([&freed](void*) { ++freed; });
    int dummy;
    for (std::uint64_t i = 0; i < kRetires; ++i) {
      EpochManager::Guard guard(&manager);
      manager.Retire(&dummy);
    }
    const EpochStats stats = manager.GetStats();
    EXPECT_EQ(stats.nodes_retired, kRetires);
    // One scan per kAdvanceEveryRetires retirements (exit-path attempts
    // add at most kRetires / kAdvanceEveryOps more).
    EXPECT_LE(stats.advance_attempts,
              kRetires / EpochManager::kAdvanceEveryRetires +
                  kRetires / EpochManager::kAdvanceEveryOps + 2);
    EXPECT_GT(stats.epoch_advances, 0u);
    // A bucket drains once it has aged three epochs; with an advance at
    // least every kAdvanceEveryRetires retirements, at most four
    // batches (3 aging + 1 filling) can be pending.
    EXPECT_LE(stats.limbo_peak, 4u * EpochManager::kAdvanceEveryRetires);
    EXPECT_GT(stats.nodes_freed, 0u) << "batched drains must actually run";
    manager.UnregisterCurrentThread();
  }
  EXPECT_EQ(freed.load(), kRetires) << "destruction frees the tail";
}

// Read-mostly load: with garbage pending but no further retirements,
// the guard-exit path (every kAdvanceEveryOps exits) must still drive
// the epoch forward and drain limbo.
TEST(EpochTest, ExitPathDrainsLimboUnderReadOnlyLoad) {
  std::atomic<std::uint64_t> freed{0};
  EpochManager manager([&freed](void*) { ++freed; });
  int dummy;
  manager.Retire(&dummy);
  // 4 * kAdvanceEveryOps guard exits with no retires: the amortized
  // exit-path TryAdvance needs 3 epoch bumps to age the bucket out.
  for (std::uint32_t i = 0; i < 4 * EpochManager::kAdvanceEveryOps; ++i) {
    EpochManager::Guard guard(&manager);
  }
  EXPECT_EQ(freed.load(), 1u);
  EXPECT_EQ(manager.LimboCount(), 0u);
  manager.UnregisterCurrentThread();
}

// Every live thread gets its own slot, however many there are: 80
// threads hold guards at once, and a node retired meanwhile survives
// any number of advance attempts until they all release.
TEST(EpochTest, EveryLiveThreadGetsItsOwnSlot) {
  constexpr int kThreads = 80;
  int target = 0;
  int filler = 0;
  std::atomic<int> target_frees{0};
  EpochManager manager([&](void* p) {
    if (p == &target) target_frees.fetch_add(1);
  });
  std::atomic<int> pinned{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  holders.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    holders.emplace_back([&] {
      {
        EpochManager::Guard guard(&manager);
        pinned.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      }
      manager.UnregisterCurrentThread();
    });
  }
  while (pinned.load() < kThreads) std::this_thread::yield();

  manager.Retire(&target);
  auto retire_rounds = [&] {
    for (std::uint32_t i = 0; i < 8 * EpochManager::kAdvanceEveryRetires;
         ++i) {
      EpochManager::Guard guard(&manager);
      manager.Retire(&filler);
    }
  };
  retire_rounds();
  EXPECT_EQ(target_frees.load(), 0)
      << "a node was freed while live threads held guards";

  release.store(true);
  for (auto& t : holders) t.join();
  retire_rounds();
  EXPECT_EQ(target_frees.load(), 1) << "quiesced threads must not pin it";
  manager.UnregisterCurrentThread();
}

// Slots linked while other threads scan them: each round, 8 new threads
// register (claiming a released slot or linking a new one), read a
// node the long-lived threads keep replacing, retire their own nodes
// and unregister, while 2 long-lived threads retire and advance. At
// most 10 threads are alive at once. Built for the TSan leg.
TEST(EpochTest, ThreadsRegisterWhileOthersScan) {
  struct Node {
    std::atomic<std::uint64_t> canary{0xABCD};
  };
  constexpr int kRounds = 64;
  constexpr int kJoiners = 8;
  constexpr int kLongLived = 2;
  std::atomic<std::uint64_t> deleted{0};
  std::atomic<std::uint64_t> poison_reads{0};
  std::uint64_t retired = 0;
  {
    EpochManager manager([&deleted](void* p) {
      static_cast<Node*>(p)->canary.store(0xDEAD, std::memory_order_release);
      delete static_cast<Node*>(p);
      deleted.fetch_add(1, std::memory_order_relaxed);
    });
    std::atomic<Node*> shared{new Node};
    std::atomic<bool> stop{false};
    std::vector<std::thread> long_lived;
    for (int t = 0; t < kLongLived; ++t) {
      long_lived.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          Node* old = shared.exchange(new Node, std::memory_order_acq_rel);
          EpochManager::Guard guard(&manager);
          manager.Retire(old);
        }
        manager.UnregisterCurrentThread();
      });
    }
    for (int round = 0; round < kRounds; ++round) {
      std::vector<std::thread> joiners;
      for (int t = 0; t < kJoiners; ++t) {
        joiners.emplace_back([&] {
          for (std::uint32_t i = 0; i <= EpochManager::kAdvanceEveryRetires;
               ++i) {
            EpochManager::Guard guard(&manager);
            const Node* node = shared.load(std::memory_order_acquire);
            if (node->canary.load(std::memory_order_acquire) == 0xDEAD) {
              poison_reads.fetch_add(1);
            }
            manager.Retire(new Node);
          }
          manager.UnregisterCurrentThread();
        });
      }
      for (auto& t : joiners) t.join();
    }
    stop.store(true);
    for (auto& t : long_lived) t.join();
    delete shared.load();

    const EpochStats stats = manager.GetStats();
    retired = stats.nodes_retired;
    EXPECT_GE(retired, std::uint64_t{kRounds} * kJoiners *
                           (EpochManager::kAdvanceEveryRetires + 1));
    EXPECT_EQ(retired, stats.nodes_freed + manager.LimboCount());
    EXPECT_EQ(stats.nodes_freed, deleted.load());
  }
  EXPECT_EQ(poison_reads.load(), 0u)
      << "a reader observed memory freed under its feet";
  EXPECT_EQ(deleted.load(), retired) << "destruction frees the rest";
}

}  // namespace
}  // namespace tsp::lockfree
