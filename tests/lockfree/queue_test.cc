#include "lockfree/queue.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/flush.h"
#include "common/random.h"
#include "pheap/test_util.h"

namespace tsp::lockfree {
namespace {

using pheap::testing::ScopedRegionFile;

class QueueTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<ScopedRegionFile>("queue");
    pheap::RegionOptions options;
    options.size = 256 * 1024 * 1024;
    auto heap = pheap::PersistentHeap::Create(file_->path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    QueueRoot* root = LockFreeQueue::CreateRoot(heap_.get());
    ASSERT_NE(root, nullptr);
    heap_->set_root(root);
    queue_ = std::make_unique<LockFreeQueue>(heap_.get(), root);
  }

  void TearDown() override {
    if (queue_ != nullptr) queue_->epoch()->UnregisterCurrentThread();
    queue_.reset();
    heap_.reset();
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<LockFreeQueue> queue_;
};

TEST_F(QueueTest, FifoOrder) {
  EXPECT_FALSE(queue_->Dequeue().has_value());
  for (std::uint64_t i = 1; i <= 100; ++i) queue_->Enqueue(i);
  EXPECT_EQ(queue_->Validate(), 100u);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_EQ(queue_->Dequeue(), i);
  }
  EXPECT_FALSE(queue_->Dequeue().has_value());
  EXPECT_EQ(queue_->Validate(), 0u);
}

TEST_F(QueueTest, InterleavedEnqueueDequeue) {
  Random rng(31);
  std::uint64_t next_in = 1, next_out = 1;
  for (int i = 0; i < 20000; ++i) {
    if (next_in == next_out || rng.Bernoulli(0.55)) {
      queue_->Enqueue(next_in++);
    } else {
      ASSERT_EQ(queue_->Dequeue(), next_out++);
    }
  }
  queue_->Validate();
}

TEST_F(QueueTest, ValidateCountsElements) {
  for (std::uint64_t i = 0; i < 37; ++i) queue_->Enqueue(i);
  queue_->Dequeue();
  queue_->Dequeue();
  EXPECT_EQ(queue_->Validate(), 35u);
}

TEST_F(QueueTest, ZeroPersistenceOverhead) {
  GlobalFlushStats().Reset();
  for (std::uint64_t i = 0; i < 1000; ++i) queue_->Enqueue(i);
  for (std::uint64_t i = 0; i < 1000; ++i) queue_->Dequeue();
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 0u);
}

TEST_F(QueueTest, ConcurrentProducersConsumers) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 10000;
  std::vector<std::vector<std::uint64_t>> consumed(kConsumers);
  std::atomic<int> producers_done{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([this, p, &producers_done] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        queue_->Enqueue(static_cast<std::uint64_t>(p) * kPerProducer + i);
      }
      producers_done.fetch_add(1);
      queue_->epoch()->UnregisterCurrentThread();
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([this, c, &consumed, &producers_done] {
      for (;;) {
        // Read before the Dequeue: once every producer has finished, an
        // empty queue stays empty, and every value dequeued is kept.
        const bool producers_finished = producers_done.load() == kProducers;
        const auto value = queue_->Dequeue();
        if (value.has_value()) {
          consumed[c].push_back(*value);
        } else if (producers_finished) {
          break;
        } else {
          std::this_thread::yield();
        }
      }
      queue_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();

  // Every element consumed exactly once.
  std::set<std::uint64_t> all;
  for (const auto& chunk : consumed) {
    for (const std::uint64_t v : chunk) {
      EXPECT_TRUE(all.insert(v).second) << "duplicate " << v;
    }
  }
  EXPECT_EQ(all.size(), kProducers * kPerProducer);
  // Per-producer order preserved.
  for (const auto& chunk : consumed) {
    std::uint64_t last_per_producer[kProducers] = {0, 0};
    bool seen[kProducers] = {false, false};
    for (const std::uint64_t v : chunk) {
      const int producer = static_cast<int>(v / kPerProducer);
      if (seen[producer]) {
        EXPECT_GT(v, last_per_producer[producer])
            << "per-producer FIFO order violated";
      }
      last_per_producer[producer] = v;
      seen[producer] = true;
    }
  }
}

TEST_F(QueueTest, SurvivesCrashAndRecovery) {
  for (std::uint64_t i = 1; i <= 500; ++i) queue_->Enqueue(i);
  for (int i = 0; i < 120; ++i) queue_->Dequeue();
  queue_->epoch()->UnregisterCurrentThread();
  const std::string path = file_->path();
  queue_.reset();
  heap_.reset();  // crash

  auto heap = pheap::PersistentHeap::Open(path);
  ASSERT_TRUE(heap.ok());
  EXPECT_TRUE((*heap)->needs_recovery());
  pheap::TypeRegistry registry;
  LockFreeQueue::RegisterTypes(&registry);
  const pheap::GcStats stats = (*heap)->RunRecoveryGc(registry);
  // 380 elements + dummy + root survive; 120 retired dummies reclaimed.
  EXPECT_EQ(stats.live_objects, 380u + 2);
  (*heap)->FinishRecovery();

  LockFreeQueue reopened(heap->get(), (*heap)->root<QueueRoot>());
  EXPECT_EQ(reopened.Validate(), 380u);
  for (std::uint64_t i = 121; i <= 500; ++i) {
    ASSERT_EQ(reopened.Dequeue(), i) << "FIFO order across the crash";
  }
  reopened.epoch()->UnregisterCurrentThread();
}

TEST_F(QueueTest, LaggingTailIsRepairedAfterReopen) {
  // Simulate the §4.1 lagging-tail crash state: a node is published
  // (next linked) but tail was never swung.
  QueueRoot* root = queue_->root();
  QueueNode* node = static_cast<QueueNode*>(
      heap_->Alloc(sizeof(QueueNode), QueueNode::kPersistentTypeId));
  node->value = 42;
  node->next.store(nullptr, std::memory_order_relaxed);
  root->tail.load()->next.store(node, std::memory_order_release);
  // (tail still points at the dummy — exactly a mid-enqueue crash.)

  EXPECT_EQ(queue_->Validate(), 1u);
  // The next operation helps: dequeue sees and repairs.
  EXPECT_EQ(queue_->Dequeue(), 42u);
  EXPECT_FALSE(queue_->Dequeue().has_value());
  queue_->Validate();
}

// Property sweep: across seeds, what the threads enqueued equals what
// they consumed plus what the walk finds left.
class QueuePropertyTest : public QueueTest,
                          public ::testing::WithParamInterface<int> {};

TEST_P(QueuePropertyTest, ConservationUnderChurn) {
  const int seed = GetParam();
  constexpr int kThreads = 3;
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, seed, &enqueued, &consumed] {
      Random rng(static_cast<std::uint64_t>(seed) * 131 + t);
      std::uint64_t my_enqueues = 0;
      std::uint64_t my_dequeues = 0;
      for (int i = 0; i < 5000; ++i) {
        if (rng.Bernoulli(0.5)) {
          queue_->Enqueue(rng.Next());
          ++my_enqueues;
        } else if (queue_->Dequeue().has_value()) {
          ++my_dequeues;
        }
      }
      enqueued.fetch_add(my_enqueues);
      consumed.fetch_add(my_dequeues);
      queue_->epoch()->UnregisterCurrentThread();
    });
  }
  for (auto& thread : threads) thread.join();
  const std::uint64_t remaining = queue_->Validate();
  EXPECT_GT(enqueued.load(), 0u);
  EXPECT_EQ(enqueued.load(), consumed.load() + remaining);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueuePropertyTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace tsp::lockfree
