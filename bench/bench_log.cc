// E7: microcosts of the Atlas runtime — what one OCS costs in each
// persistence mode, what a logged store costs on the counter-slot path
// and on the ring path, and the log-pruning fast path.
// These per-operation numbers decompose the Table 1 column differences.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "pheap/heap.h"

namespace {

using tsp::PersistencePolicy;
using tsp::atlas::AtlasRuntime;
using tsp::atlas::AtlasThread;
using tsp::atlas::PLockWord;
using tsp::atlas::PMutex;
using tsp::pheap::PersistentHeap;

struct Env {
  std::unique_ptr<PersistentHeap> heap;
  std::unique_ptr<AtlasRuntime> runtime;
  std::string path;

  explicit Env(PersistencePolicy policy, bool counter_slots = true) {
    path = "/dev/shm/tsp_bench_log_" + std::to_string(getpid()) + ".heap";
    unlink(path.c_str());
    tsp::pheap::RegionOptions options;
    options.size = 512u << 20;
    options.runtime_area_size = 64u << 20;
    auto heap_or = PersistentHeap::Create(path, options);
    heap = std::move(heap_or).value();
    AtlasRuntime::Options runtime_options;
    runtime_options.use_counter_slots = counter_slots;
    runtime = std::make_unique<AtlasRuntime>(heap.get(), policy,
                                             runtime_options);
    (void)runtime->Initialize();
  }
  ~Env() {
    runtime.reset();
    heap.reset();
    unlink(path.c_str());
  }
};

void BM_OcsNativeMutex(benchmark::State& state) {
  Env env(PersistencePolicy::Unprotected());
  auto* value = static_cast<std::uint64_t*>(env.heap->Alloc(8));
  PMutex mutex(nullptr);
  std::uint64_t i = 0;
  for (auto _ : state) {
    mutex.lock();
    *value = i++;
    mutex.unlock();
  }
}
BENCHMARK(BM_OcsNativeMutex);

template <bool kFlush>
void BM_OcsLogged(benchmark::State& state) {
  Env env(kFlush ? PersistencePolicy::SyncFlush()
                 : PersistencePolicy::TspLogOnly());
  auto* value = static_cast<std::uint64_t*>(env.heap->Alloc(8));
  PMutex mutex(env.runtime.get());
  AtlasThread* thread = env.runtime->CurrentThread();
  std::uint64_t i = 0;
  for (auto _ : state) {
    mutex.lock();
    thread->Store(value, i++);
    mutex.unlock();
  }
  env.runtime->UnregisterCurrentThread();
}
BENCHMARK(BM_OcsLogged<false>)->Name("BM_OcsLogged/tsp-log-only");
BENCHMARK(BM_OcsLogged<true>)->Name("BM_OcsLogged/log+flush");

// Stores inside one OCS: a repeat store to the same word hits the
// counter slot its first store armed (the slot path, no record);
// unique locations each arm a slot or append a ring record.
void BM_LoggedStoreSameLocation(benchmark::State& state) {
  Env env(PersistencePolicy::TspLogOnly());
  auto* value = static_cast<std::uint64_t*>(env.heap->Alloc(8));
  AtlasThread* thread = env.runtime->CurrentThread();
  PLockWord word;
  thread->OnAcquire(&word, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    thread->Store(value, i++);
  }
  thread->OnRelease(&word, 1);
  env.runtime->UnregisterCurrentThread();
}
BENCHMARK(BM_LoggedStoreSameLocation);

void BM_LoggedStoreUniqueLocations(benchmark::State& state) {
  Env env(PersistencePolicy::TspLogOnly());
  constexpr std::size_t kSlots = 1 << 13;
  auto* array =
      static_cast<std::uint64_t*>(env.heap->Alloc(kSlots * 8));
  AtlasThread* thread = env.runtime->CurrentThread();
  PMutex mutex(env.runtime.get());
  std::uint64_t i = 0;
  // Bounded OCS size: re-open the OCS every kSlots stores so the ring
  // stays finite.
  while (state.KeepRunningBatch(kSlots)) {
    tsp::atlas::PMutexLock lock(&mutex);
    for (std::size_t s = 0; s < kSlots; ++s) {
      thread->Store(&array[s], i++);
    }
  }
  env.runtime->UnregisterCurrentThread();
}
BENCHMARK(BM_LoggedStoreUniqueLocations);

// Multi-word guarded store: one undo record per word, all
// published as one batch — a single tail advance and (in sync-flush
// mode) one contiguous write-back + one fence, instead of a flush and
// fence per word entry. The log+flush instance is the E7 ablation that
// batching targets. Counter slots are off so every word's record lands
// in the ring batch.
template <bool kFlush>
void BM_StoreBytesBatch(benchmark::State& state) {
  Env env(kFlush ? PersistencePolicy::SyncFlush()
                 : PersistencePolicy::TspLogOnly(),
          /*counter_slots=*/false);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  auto* dst = static_cast<char*>(env.heap->Alloc(bytes));
  std::vector<char> src(bytes, 0x5A);
  AtlasThread* thread = env.runtime->CurrentThread();
  PMutex mutex(env.runtime.get());
  for (auto _ : state) {
    tsp::atlas::PMutexLock lock(&mutex);
    thread->StoreBytes(dst, src.data(), bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  const tsp::atlas::AtlasRuntimeStats stats = thread->local_stats();
  state.counters["batched_publishes"] =
      static_cast<double>(stats.batched_publishes);
  env.runtime->UnregisterCurrentThread();
}
BENCHMARK(BM_StoreBytesBatch<false>)
    ->Name("BM_StoreBytesBatch/tsp-log-only")
    ->Arg(64)
    ->Arg(256);
BENCHMARK(BM_StoreBytesBatch<true>)
    ->Name("BM_StoreBytesBatch/log+flush")
    ->Arg(64)
    ->Arg(256);

// Commit paths: dependency-free OCSes trim inline; an OCS with a
// cross-thread dependency publishes its record, and its release runs a
// stability pass. Every row counts one OCS per iteration, and the
// publishing rows report how many of their OCSes published.

/// Runs `counted` as one OCS of `thread` per iteration, each depending
/// on an OCS that `peer` still holds open (the shape of the recovery
/// tests' RunPublishedOcs): the peer opens an OCS and releases a nested
/// lock inside it, `thread` takes that lock and records a dependency,
/// publishes at its release and stays pending through its own pass;
/// then the peer commits inline, and the pass of the next iteration's
/// publish stabilizes the OCS. Each iteration takes a fresh nested lock
/// word, so the peer's acquire never depends on the OCS still pending.
/// The peer's OCS is timed too: a nested bracket plus an inline commit.
template <typename Counted>
void RunPublishedOcses(benchmark::State& state, AtlasThread& peer,
                       AtlasThread& thread, Counted counted) {
  PLockWord outer;
  for (auto _ : state) {
    PLockWord shared;
    peer.OnAcquire(&outer, 2);
    peer.OnAcquire(&shared, 1);
    peer.OnRelease(&shared, 1);  // nested: the peer's OCS stays open
    counted(shared);
    peer.OnRelease(&outer, 2);
  }
  const std::uint64_t published = thread.local_stats().published_commits;
  state.counters["published"] = static_cast<double>(published);
  if (published != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("a counted OCS committed inline");
  }
}

void BM_CommitFastPath(benchmark::State& state) {
  Env env(PersistencePolicy::TspLogOnly());
  AtlasThread* thread = env.runtime->CurrentThread();
  PLockWord word;
  for (auto _ : state) {
    thread->OnAcquire(&word, 1);
    thread->OnRelease(&word, 1);
    // Own releases are program-order deps and skipped: fast path.
  }
  env.runtime->UnregisterCurrentThread();
}
BENCHMARK(BM_CommitFastPath);

void BM_CommitPublishPath(benchmark::State& state) {
  Env env(PersistencePolicy::TspLogOnly());
  AtlasThread peer(env.runtime.get(), 40);
  AtlasThread thread(env.runtime.get(), 41);
  RunPublishedOcses(state, peer, thread, [&](PLockWord& word) {
    thread.OnAcquire(&word, 1);
    thread.OnRelease(&word, 1);
  });
  env.runtime->StabilizeNow();
}
BENCHMARK(BM_CommitPublishPath);

// Remove-shaped OCSes: one unlink store plus a DeferFree of a block a
// Put-like Alloc made just before the OCS. A dependency-free OCS is
// stable at release: it commits inline and frees the block on the spot,
// into the thread's magazine, where the next Alloc finds it. One that
// depends on a peer's open OCS (as above) publishes its free, and the
// pass that proves the OCS stable applies it.
void RemoveShapedOcs(Env& env, AtlasThread& thread, PLockWord& word,
                     std::uint64_t* link, std::uint64_t value) {
  void* block = env.heap->Alloc(24);
  thread.OnAcquire(&word, 1);
  thread.Store(link, value);
  thread.DeferFree(block);
  thread.OnRelease(&word, 1);
}

void BM_CommitRemoveInline(benchmark::State& state) {
  Env env(PersistencePolicy::TspLogOnly());
  AtlasThread* thread = env.runtime->CurrentThread();
  auto* link = static_cast<std::uint64_t*>(env.heap->Alloc(8));
  PLockWord word;
  std::uint64_t i = 0;
  for (auto _ : state) RemoveShapedOcs(env, *thread, word, link, i++);
  state.counters["published"] =
      static_cast<double>(thread->local_stats().published_commits);
  env.runtime->UnregisterCurrentThread();
}
BENCHMARK(BM_CommitRemoveInline)->Name("BM_CommitRemove/inline");

void BM_CommitRemovePublished(benchmark::State& state) {
  Env env(PersistencePolicy::TspLogOnly());
  AtlasThread peer(env.runtime.get(), 40);
  AtlasThread thread(env.runtime.get(), 41);
  auto* link = static_cast<std::uint64_t*>(env.heap->Alloc(8));
  std::uint64_t i = 0;
  RunPublishedOcses(state, peer, thread, [&](PLockWord& word) {
    RemoveShapedOcs(env, thread, word, link, i++);
  });
  env.runtime->StabilizeNow();
}
BENCHMARK(BM_CommitRemovePublished)->Name("BM_CommitRemove/published");

}  // namespace

BENCHMARK_MAIN();
