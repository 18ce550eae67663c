// SIGKILL crash cycles over Remove on the mutex map in log-only mode.
// A Remove whose OCS is stable at release frees its entry on the
// committing thread right after the mutex drop (DESIGN.md §10), and the
// next Put of that thread reuses the block. Workers interleave Put and
// Remove on key ranges of their own, so kills land between a commit and
// its frees and between a free and the Put that reuses the block. After
// every recovery the heap must check clean, the recovery GC must meet no
// invalid pointer, and each worker's range must hold exactly the state
// of its last completed operation (the one in flight may be absent or
// complete).

#include <sys/mman.h>

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "faultsim/crash_harness.h"
#include "pheap/check.h"
#include "pheap/test_util.h"
#include "workload/map_session.h"

namespace tsp::faultsim {
namespace {

using pheap::testing::ScopedRegionFile;
using workload::MapSession;
using workload::MapVariant;

constexpr int kWorkers = 4;
/// Keys per worker; half of them are live in the steady state.
constexpr std::uint64_t kRange = 64;

std::uint64_t KeyOf(int worker, std::uint64_t index) {
  return (static_cast<std::uint64_t>(worker) + 1) << 32 | index;
}

/// Operation `op` (1-based) of `worker`: odd ones Put the value `op`,
/// even ones Remove the key put kRange/2 Puts earlier, so every Put past
/// the first kRange/2 inserts, and every such Remove finds its key.
struct Op {
  bool put;
  std::uint64_t key;
};
Op OpOf(int worker, std::uint64_t op) {
  const std::uint64_t m = (op - 1) / 2;
  return op % 2 == 1 ? Op{true, KeyOf(worker, m % kRange)}
                     : Op{false, KeyOf(worker, (m + kRange / 2) % kRange)};
}

void Apply(int worker, std::uint64_t op,
           std::map<std::uint64_t, std::uint64_t>* state) {
  const Op o = OpOf(worker, op);
  if (o.put) {
    (*state)[o.key] = op;
  } else {
    state->erase(o.key);
  }
}

void Run(int worker, std::uint64_t op, maps::Map* map) {
  const Op o = OpOf(worker, op);
  if (o.put) {
    map->Put(o.key, op);
  } else {
    map->Remove(o.key);
  }
}

/// Per-worker count of completed operations, in memory shared with the
/// forked worker so it outlives the SIGKILL.
class Progress {
 public:
  Progress() {
    void* mem = mmap(nullptr, sizeof(Counters), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    counters_ = mem == MAP_FAILED ? nullptr : new (mem) Counters{};
  }
  ~Progress() {
    if (counters_ != nullptr) munmap(counters_, sizeof(Counters));
  }
  Progress(const Progress&) = delete;
  Progress& operator=(const Progress&) = delete;

  bool ok() const { return counters_ != nullptr; }
  std::atomic<std::uint64_t>& done(int worker) const {
    return counters_->done[worker];
  }

  /// Operations completed over every verified cycle (parent side).
  std::uint64_t verified_ops = 0;

 private:
  struct Counters {
    std::atomic<std::uint64_t> done[kWorkers];
  };
  Counters* counters_;
};

/// What is wrong with the recovered session, or "" when it is exact.
std::string Verify(MapSession* session, Progress* progress) {
  std::string problems;
  pheap::TypeRegistry registry;
  MapSession::RegisterAllTypes(&registry);
  for (int shard = 0; shard < session->shard_count(); ++shard) {
    const pheap::CheckReport check =
        pheap::CheckHeap(*session->heap(shard), registry);
    if (!check.ok) {
      problems += "CheckHeap shard " + std::to_string(shard) + ": " +
                  check.ToString() + "; ";
    }
  }
  if (session->gc_stats().invalid_pointers != 0) {
    problems += "recovery GC met " +
                std::to_string(session->gc_stats().invalid_pointers) +
                " invalid pointers; ";
  }
  std::vector<std::map<std::uint64_t, std::uint64_t>> found(kWorkers);
  session->map()->ForEach([&](std::uint64_t key, std::uint64_t value) {
    const std::uint64_t owner = (key >> 32) - 1;
    if (owner < static_cast<std::uint64_t>(kWorkers)) {
      found[owner][key] = value;
    } else {
      problems += "stray key " + std::to_string(key) + "; ";
    }
  });
  for (int w = 0; w < kWorkers; ++w) {
    const std::uint64_t done = progress->done(w).load();
    progress->verified_ops += done;
    std::map<std::uint64_t, std::uint64_t> expected;
    for (std::uint64_t op = 1; op <= done; ++op) Apply(w, op, &expected);
    if (found[w] == expected) continue;
    Apply(w, done + 1, &expected);  // the operation in flight completed
    if (found[w] != expected) {
      problems += "worker " + std::to_string(w) + " holds " +
                  std::to_string(found[w].size()) +
                  " keys, matching neither operation " +
                  std::to_string(done) + " nor " + std::to_string(done + 1) +
                  "; ";
    }
  }
  // The next cycle starts from a fresh heap.
  for (int w = 0; w < kWorkers; ++w) progress->done(w).store(0);
  return problems;
}

CrashCycleOptions RemoveCycleOptions(const std::string& path,
                                     Progress* progress) {
  CrashCycleOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path = path;
  options.session.heap_size = 64 * 1024 * 1024;
  options.session.runtime_area_size = 16 * 1024 * 1024;
  options.session.hash_options.bucket_count = 4096;
  options.session.hash_options.buckets_per_lock = 64;
  options.cycles = 8;
  options.min_run_ms = 10;
  options.max_run_ms = 60;
  options.worker = [progress](maps::Map* map) {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([w, map, progress] {
        for (std::uint64_t op = 1;; ++op) {
          Run(w, op, map);
          progress->done(w).store(op, std::memory_order_release);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();  // until the kill
  };
  options.verify = [progress](MapSession* session) {
    return Verify(session, progress);
  };
  return options;
}

TEST(RemoveCrashTest, PutRemoveCyclesRecoverExactly) {
  Progress progress;
  ASSERT_TRUE(progress.ok());
  ScopedRegionFile file("remove_crash");
  CrashCycleOptions options = RemoveCycleOptions(file.path(), &progress);
  options.seed = 0x5EED;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
  EXPECT_GT(progress.verified_ops, kWorkers * kRange)
      << "the workers should reach the steady state, where Removes free";
}

// The same cycles over two shard heaps: each Remove commits and frees
// in the shard its key routes to, and both shards recover on reopen.
TEST(RemoveCrashTest, ShardedPutRemoveCyclesRecoverExactly) {
  Progress progress;
  ASSERT_TRUE(progress.ok());
  ScopedRegionFile file("remove_crash_sharded");
  CrashCycleOptions options = RemoveCycleOptions(file.path(), &progress);
  options.session.shards = 2;
  options.seed = 0x5EED2;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
  EXPECT_GT(progress.verified_ops, kWorkers * kRange);
}

}  // namespace
}  // namespace tsp::faultsim
