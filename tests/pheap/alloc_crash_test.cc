// Crash injection for the magazine allocator: SIGKILL worker processes
// whose threads churn allocations through their magazines, with bursts
// that empty and overfill a magazine so the kill lands mid-refill,
// mid-drain, or with blocks parked in magazines — then show that the
// advisory-metadata contract holds: the recovery GC reclaims
// every parked/leaked block (nothing lost), hands no block out twice
// (nothing double-live), and CheckHeap finds zero structural problems.
// Magazines are DRAM-only, so there is nothing to roll back and nothing
// recovery even reads; these cycles exist to prove that claim.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/random.h"
#include "pheap/check.h"
#include "pheap/gc.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"

namespace tsp::pheap {
namespace {

using testing::ScopedRegionFile;

constexpr std::size_t kSlots = 128;
constexpr int kWorkerThreads = 3;
constexpr std::size_t kPayload = 40;  // 64-byte class: magazine-eligible

/// Persistent root: an array of published payload addresses. Slots are
/// atomics because worker threads publish/retire concurrently; the
/// stored value is the payload pointer itself (fixed-address mapping).
struct SlotArray {
  static constexpr std::uint32_t kPersistentTypeId = 901;
  std::atomic<std::uint64_t> slots[kSlots];
};

TypeRegistry MakeRegistry() {
  TypeRegistry registry;
  registry.Register<SlotArray>(
      "SlotArray", [](const void* payload, const PointerVisitor& visit) {
        const auto* array = static_cast<const SlotArray*>(payload);
        for (const auto& slot : array->slots) {
          visit(reinterpret_cast<const void*>(
              slot.load(std::memory_order_relaxed)));
        }
      });
  return registry;
}

/// Deterministic per-block fill derived from the payload address, so
/// the recovering process can validate contents without any channel to
/// the dead worker.
unsigned char FillFor(const void* payload) {
  const auto address = reinterpret_cast<std::uintptr_t>(payload);
  return static_cast<unsigned char>(0x11 + ((address >> 4) & 0x7F));
}

/// Worker body: publish/retire blocks through the root slot array.
/// Retiring a slot published by another thread frees a block this
/// thread did not allocate into this thread's magazine. One operation
/// in eight is a burst of one block more than a magazine holds,
/// allocated and then freed: the allocations empty the magazine (a
/// refill) and the frees overfill it (a drain), so with three threads
/// the process is essentially always mid-refill, mid-drain, or holding
/// parked blocks — any moment is a bad moment to die, which is the
/// point.
void WorkerChurn(PersistentHeap* heap, SlotArray* array, int thread_index,
                 std::atomic<std::uint64_t>* ops) {
  Random rng(0xA110C000 + static_cast<std::uint64_t>(thread_index));
  void* burst[Allocator::kMagazineCapacity + 1];
  for (;;) {
    if (rng.Bernoulli(0.125)) {
      for (void*& block : burst) {
        block = heap->Alloc(kPayload, 0);
        if (block == nullptr) _exit(5);
      }
      for (void* block : burst) heap->Free(block);
    }
    void* payload = heap->Alloc(kPayload, 0);
    if (payload == nullptr) _exit(5);  // arena exhausted: test bug
    std::memset(payload, FillFor(payload), kPayload);
    if (rng.Bernoulli(0.25)) {
      // Pure churn: immediately retire (stays in this thread's
      // magazine, exercising the hit path).
      heap->Free(payload);
    } else {
      const std::size_t slot = rng.Uniform(kSlots);
      const std::uint64_t old = array->slots[slot].exchange(
          reinterpret_cast<std::uint64_t>(payload),
          std::memory_order_acq_rel);
      if (old != 0) heap->Free(reinterpret_cast<void*>(old));
    }
    ops->fetch_add(1, std::memory_order_relaxed);
  }
}

/// One child lifetime: open (recovering if the previous kill left the
/// heap dirty), churn until told to die. Readiness is signaled only
/// after every thread has cleared a warm-up op count, so the kill lands
/// in steady-state churn.
[[noreturn]] void RunWorkerProcess(const std::string& path, int ready_fd) {
  auto heap_or = PersistentHeap::Open(path);
  if (!heap_or.ok()) _exit(2);
  auto heap = std::move(*heap_or);
  const TypeRegistry registry = MakeRegistry();
  if (heap->needs_recovery()) {
    heap->RunRecoveryGc(registry);
    heap->FinishRecovery();
  }

  auto* array = heap->root<SlotArray>();
  if (array == nullptr) {
    array = heap->New<SlotArray>();
    if (array == nullptr) _exit(3);
    for (auto& slot : array->slots) {
      slot.store(0, std::memory_order_relaxed);
    }
    heap->set_root(array);
  }

  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkerThreads; ++t) {
    threads.emplace_back(WorkerChurn, heap.get(), array, t, &ops);
  }
  while (ops.load(std::memory_order_relaxed) <
         static_cast<std::uint64_t>(kWorkerThreads) * 500) {
  }
  char ok = 'k';
  if (write(ready_fd, &ok, 1) != 1) _exit(4);
  for (;;) pause();  // churn continues on the worker threads until killed
}

TEST(AllocCrashTest, MagazinesRecoverCleanAfterRepeatedSigkill) {
  ScopedRegionFile file("alloc_crash");
  RegionOptions options;
  options.size = 128 * 1024 * 1024;
  options.runtime_area_size = 1 * 1024 * 1024;
  {
    auto heap = PersistentHeap::Create(file.path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    // Intentionally no CloseClean: the first child recovers a fresh,
    // empty, "crashed" heap — a recovery no-op.
  }
  const TypeRegistry registry = MakeRegistry();
  Random delay_rng(0xDEAD);

  constexpr int kCycles = 5;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    int ready_pipe[2];
    ASSERT_EQ(pipe(ready_pipe), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      close(ready_pipe[0]);
      RunWorkerProcess(file.path(), ready_pipe[1]);
    }
    close(ready_pipe[1]);
    char ok = 0;
    ASSERT_EQ(read(ready_pipe[0], &ok, 1), 1)
        << "worker died during setup in cycle " << cycle;
    close(ready_pipe[0]);
    ASSERT_EQ(ok, 'k');
    // Let steady-state churn run a little longer, then kill without
    // warning. The delay varies so kills land in different phases
    // (mid-refill, mid-drain, mid-publish).
    usleep(2000 + delay_rng.Uniform(25000));
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // --- recover and audit ---
    auto heap_or = PersistentHeap::Open(file.path());
    ASSERT_TRUE(heap_or.ok()) << heap_or.status().ToString();
    auto heap = std::move(*heap_or);
    EXPECT_TRUE(heap->needs_recovery());
    const GcStats gc = heap->RunRecoveryGc(registry);
    heap->FinishRecovery();

    // Zero double-live / dangling: every published slot held a fully
    // allocated block (publication happens strictly after Alloc
    // returns), so the mark phase must find no invalid pointer.
    EXPECT_EQ(gc.invalid_pointers, 0u) << "cycle " << cycle;

    auto* array = heap->root<SlotArray>();
    ASSERT_NE(array, nullptr);
    std::uint64_t published = 0;
    for (const auto& slot : array->slots) {
      const std::uint64_t address = slot.load(std::memory_order_relaxed);
      if (address == 0) continue;
      ++published;
      // Contents written before the kill survived it (kernel
      // persistence) and the block is still intact after recovery.
      const auto* bytes = reinterpret_cast<const unsigned char*>(address);
      const unsigned char want = FillFor(bytes);
      for (std::size_t b = 0; b < kPayload; ++b) {
        ASSERT_EQ(bytes[b], want)
            << "cycle " << cycle << ": published block corrupted";
      }
    }
    EXPECT_EQ(gc.live_objects, published + 1) << "cycle " << cycle
                                              << " (+1 for the root array)";

    // Zero leaked: after the GC, every arena byte below the bump pointer
    // is a live block, a free-list block, or an unsplittable sliver —
    // blocks that died parked in magazines are back on the free lists,
    // not lost.
    const CheckReport report = CheckHeap(*heap, registry);
    EXPECT_TRUE(report.ok) << "cycle " << cycle << ": " << report.ToString();
    EXPECT_EQ(report.unaccounted_bytes, gc.sliver_bytes)
        << "cycle " << cycle << ": blocks leaked by the crash survived GC";
    EXPECT_EQ(report.reachable_objects, gc.live_objects);
    const AllocatorStats totals = heap->GetAllocatorStats();
    EXPECT_EQ(totals.total_allocs - totals.total_frees, gc.live_objects)
        << "cycle " << cycle << ": the killed session's magazine counts";

    // The recovered heap allocates normally again (and the fresh
    // session's magazines start empty).
    void* probe = heap->Alloc(kPayload, 0);
    ASSERT_NE(probe, nullptr);
    heap->Free(probe);
    // Destroy without CloseClean so the next cycle's child also takes
    // the recovery path.
  }
}

}  // namespace
}  // namespace tsp::pheap
