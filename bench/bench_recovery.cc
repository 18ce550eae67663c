// E9 (ablation): the cost of procrastination's other half — recovery.
// TSP moves work from failure-free operation to recovery time; this
// bench quantifies that recovery work:
//   (a) rollback time vs. the number of undo records in the
//       crash-interrupted OCS,
//   (b) recovery-GC time vs. the number of live objects in the heap, and
//   (c) sharded recovery: K crashed shard heaps recovered one after
//       another vs. one equal-total single heap — what splitting the
//       same data across shards costs or saves at recovery time.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "maps/mutex_hashmap.h"
#include "pheap/heap.h"

#include "bench_util.h"

namespace {

using Clock = std::chrono::steady_clock;
using tsp::atlas::AtlasRuntime;
using tsp::atlas::AtlasThread;
using tsp::atlas::PLockWord;
using tsp::maps::MutexHashMap;
using tsp::pheap::PersistentHeap;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string HeapPath() {
  return "/dev/shm/tsp_bench_rec_" + std::to_string(getpid()) + ".heap";
}

tsp::pheap::RegionOptions BigRegion() {
  tsp::pheap::RegionOptions options;
  options.size = 2048ULL << 20;
  options.runtime_area_size = 256u << 20;
  return options;
}

// (a) Rollback cost: crash an OCS holding `stores` undo records.
void BenchRollback(std::uint64_t stores) {
  const std::string path = HeapPath();
  unlink(path.c_str());
  {
    auto heap = std::move(PersistentHeap::Create(path, BigRegion())).value();
    AtlasRuntime runtime(heap.get(), tsp::PersistencePolicy::TspLogOnly());
    (void)runtime.Initialize();
    AtlasThread* thread = runtime.CurrentThread();
    auto* array = static_cast<std::uint64_t*>(heap->Alloc(stores * 8));
    heap->set_root(array);
    PLockWord word;
    thread->OnAcquire(&word, 1);
    for (std::uint64_t i = 0; i < stores; ++i) {
      thread->Store(&array[i], i + 1);
    }
    // crash: destroy without release/unregister/CloseClean
  }
  auto heap = std::move(PersistentHeap::Open(path)).value();
  const auto start = Clock::now();
  auto stats = tsp::atlas::RecoverAtlas(heap.get());
  const double rollback_ms = MsSince(start);
  std::printf("  %12llu undo records  rollback %10.3f ms  (%llu undone)\n",
              static_cast<unsigned long long>(stores), rollback_ms,
              static_cast<unsigned long long>(stats->stores_undone));
  heap.reset();
  unlink(path.c_str());
}

// (b) GC cost: mark-sweep over a map with `entries` live entries.
void BenchGc(std::uint64_t entries) {
  const std::string path = HeapPath();
  unlink(path.c_str());
  {
    auto heap = std::move(PersistentHeap::Create(path, BigRegion())).value();
    MutexHashMap::Options options;
    options.bucket_count = 1 << 18;
    auto* root = MutexHashMap::CreateRoot(heap.get(), options);
    heap->set_root(root);
    MutexHashMap map(heap.get(), root, nullptr, options);
    for (std::uint64_t i = 0; i < entries; ++i) map.Put(i, i);
    // crash
  }
  auto heap = std::move(PersistentHeap::Open(path)).value();
  tsp::pheap::TypeRegistry registry;
  MutexHashMap::RegisterTypes(&registry);
  const auto start = Clock::now();
  const tsp::pheap::GcStats stats = heap->RunRecoveryGc(registry);
  const double gc_ms = MsSince(start);
  std::printf(
      "  %12llu live entries  mark-sweep %8.3f ms  (%.1f Mobj/s)\n",
      static_cast<unsigned long long>(entries), gc_ms,
      static_cast<double>(stats.live_objects) / gc_ms / 1000.0);
  heap.reset();
  unlink(path.c_str());
}

// Populates an open heap with `entries` map entries and leaves an OCS
// open mid-flight (`pending_stores` undo records) so the later
// recovery has both rollback and GC work.
void PopulateForCrash(PersistentHeap* heap, std::uint64_t entries,
                      std::uint64_t pending_stores) {
  AtlasRuntime runtime(heap, tsp::PersistencePolicy::TspLogOnly());
  (void)runtime.Initialize();
  MutexHashMap::Options map_options;
  map_options.bucket_count = 1 << 16;
  auto* root = MutexHashMap::CreateRoot(heap, map_options);
  heap->set_root(root);
  MutexHashMap map(heap, root, nullptr, map_options);
  for (std::uint64_t i = 0; i < entries; ++i) map.Put(i, i);
  AtlasThread* thread = runtime.CurrentThread();
  auto* scratch =
      static_cast<std::uint64_t*>(heap->Alloc(pending_stores * 8));
  PLockWord word;
  thread->OnAcquire(&word, 1);
  for (std::uint64_t i = 0; i < pending_stores; ++i) {
    thread->Store(&scratch[i], i + 1);
  }
  // caller "crashes" by destroying without release/CloseClean
}

// Builds all `paths` as crashed heaps. The heaps are created and held
// open TOGETHER so each records a distinct address slot in its header
// (created one-at-a-time they would all reuse the lowest free slot and
// could not be remapped concurrently later).
void BuildCrashedHeaps(const std::vector<std::string>& paths,
                       std::uint64_t entries_each,
                       std::uint64_t pending_each, std::size_t arena_mb) {
  tsp::pheap::RegionOptions options;
  options.size = arena_mb << 20;
  options.runtime_area_size = 32u << 20;
  std::vector<std::unique_ptr<PersistentHeap>> heaps;
  for (const std::string& path : paths) {
    unlink(path.c_str());
    heaps.push_back(std::move(PersistentHeap::Create(path, options)).value());
  }
  for (auto& heap : heaps) {
    PopulateForCrash(heap.get(), entries_each, pending_each);
  }
  // crash all at once
}

// (c) One equal-total single heap vs. K shards recovered in turn.
void BenchShardedRecovery(int shards, std::uint64_t total_entries) {
  tsp::pheap::TypeRegistry registry;
  MutexHashMap::RegisterTypes(&registry);
  const std::uint64_t kPendingStores = 10000;
  const std::size_t kTotalArenaMb = 1024;

  // Baseline: everything in one heap, recovered on one thread.
  const std::string single_path = HeapPath();
  BuildCrashedHeaps({single_path}, total_entries, kPendingStores,
                    kTotalArenaMb);
  double single_ms = 0;
  {
    auto heap = std::move(PersistentHeap::Open(single_path)).value();
    const auto start = Clock::now();
    auto result = tsp::atlas::RecoverHeap(heap.get(), registry);
    single_ms = MsSince(start);
    if (!result.ok()) {
      std::printf("  single-heap recovery FAILED: %s\n",
                  result.status().ToString().c_str());
    }
  }
  unlink(single_path.c_str());

  // Same data split across K shard heaps, each with its own undo logs.
  std::vector<std::string> shard_paths;
  for (int s = 0; s < shards; ++s) {
    shard_paths.push_back(HeapPath() + ".shard" + std::to_string(s));
  }
  BuildCrashedHeaps(shard_paths,
                    total_entries / static_cast<unsigned>(shards),
                    kPendingStores / static_cast<unsigned>(shards),
                    kTotalArenaMb / static_cast<unsigned>(shards));
  double seq_ms = 0;
  {
    std::vector<std::unique_ptr<PersistentHeap>> heaps;
    for (const std::string& path : shard_paths) {
      heaps.push_back(std::move(PersistentHeap::Open(path)).value());
    }
    const auto start = Clock::now();
    for (const auto& heap : heaps) {
      auto result = tsp::atlas::RecoverHeap(heap.get(), registry);
      if (!result.ok()) {
        std::printf("  shard recovery FAILED: %s\n",
                    result.status().ToString().c_str());
      }
    }
    seq_ms = MsSince(start);
  }
  for (const std::string& path : shard_paths) unlink(path.c_str());

  std::printf(
      "  %2d shards x %8llu entries: single heap %9.3f ms | shards "
      "sequential %9.3f ms (%.2fx vs single)\n",
      shards,
      static_cast<unsigned long long>(total_entries /
                                      static_cast<unsigned>(shards)),
      single_ms, seq_ms, single_ms / seq_ms);
}

}  // namespace

int main() {
  std::printf("Recovery-cost ablation (E9); build %s, nproc %u\n",
              tsp::bench::BuildType(), std::thread::hardware_concurrency());
  std::printf("\n(a) Atlas rollback vs. interrupted-OCS size:\n");
  for (const std::uint64_t stores : {10ULL, 1000ULL, 10000ULL, 100000ULL}) {
    BenchRollback(stores);
  }
  std::printf("\n(b) Recovery GC vs. heap population:\n");
  for (const std::uint64_t entries :
       {1000ULL, 10000ULL, 100000ULL, 1000000ULL}) {
    BenchGc(entries);
  }
  std::printf("\n(c) Sharded recovery vs. equal-total single heap:\n");
  for (const int shards : {1, 2, 4}) {
    BenchShardedRecovery(shards, 400000);
  }
  std::printf(
      "\nTSP's bargain: milliseconds of recovery work per crash in "
      "exchange\nfor zero flush instructions on every failure-free "
      "store.\n");
  return 0;
}
