// Allocation-path microbenchmark for the magazine layer: alloc/free
// throughput of 64-byte persistent blocks at 1..8 threads, shared-CAS
// baseline vs per-thread magazines, for two access patterns:
//
//   churn     — each thread allocates and frees its own blocks through
//               a sliding window (the magazine hit path);
//   xthread   — each thread allocates and hands blocks to its neighbor,
//               which frees them into its own magazine; drains and
//               refills carry them back through the shared lists (in
//               the baseline every such free is a contended CAS).
//
// The shared baseline is the same allocator with magazines disabled via
// Allocator::set_magazines_enabled(false), so the comparison isolates
// the magazine layer, not an unrelated code path. After every run the
// heap must pass CheckHeap with every block back on a free list; a
// finding prints the report and exits 1.
//
// Flags: --iters N       operations per thread      (default 200000)
//        --window N      live blocks per thread     (default 64)
//        --json PATH     (default results/alloc.json; "" disables)

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "pheap/check.h"
#include "pheap/heap.h"

namespace {

using tsp::pheap::PersistentHeap;
using tsp::pheap::RegionOptions;

constexpr std::size_t kPayload = 48;  // 64-byte class with the header
constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct BenchConfig {
  std::uint64_t iters_per_thread = 200000;
  std::size_t window = 64;
};

struct RunResult {
  double mops = 0.0;          // millions of alloc+free pairs per second
  std::uint64_t refill_batches = 0;  // batch pops from a shared list
  std::uint64_t drain_batches = 0;   // chains pushed to a shared list
  std::uint64_t magazine_allocs = 0;
  std::uint64_t shared_allocs = 0;
};

std::unique_ptr<PersistentHeap> MakeHeap(const std::string& path,
                                         bool magazines) {
  unlink(path.c_str());
  RegionOptions options;
  options.size = 512u << 20;
  options.runtime_area_size = 1u << 20;
  auto heap = PersistentHeap::Create(path, options);
  if (!heap.ok()) {
    std::fprintf(stderr, "%s\n", heap.status().ToString().c_str());
    std::exit(1);
  }
  (*heap)->allocator()->set_magazines_enabled(magazines);
  return std::move(*heap);
}

/// Start barrier: all workers begin timed work together. Waiters yield
/// rather than spin — on machines with fewer cores than threads a hard
/// spin burns whole scheduler quanta while the remaining workers are
/// still being created, which distorts short runs.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}
  void Arrive() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (arrived_.load(std::memory_order_acquire) < parties_) {
      std::this_thread::yield();
    }
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
};

/// Same-thread churn: a sliding window of live blocks; every iteration
/// allocates one and frees the oldest.
void ChurnWorker(PersistentHeap* heap, const BenchConfig& config,
                 Barrier* barrier) {
  std::vector<void*> window(config.window, nullptr);
  barrier->Arrive();
  for (std::uint64_t i = 0; i < config.iters_per_thread; ++i) {
    void* fresh = heap->Alloc(kPayload, 0);
    if (fresh == nullptr) std::exit(2);
    void*& slot = window[i % config.window];
    if (slot != nullptr) heap->Free(slot);
    slot = fresh;
  }
  for (void* block : window) {
    if (block != nullptr) heap->Free(block);
  }
}

/// Cross-thread handoff: thread i pushes the blocks it allocates into
/// ring (i+1)%T and frees whatever lands in ring i, so every handed-off
/// block is freed by a thread that did not allocate it.
struct HandoffRing {
  static constexpr std::size_t kCapacity = 256;
  alignas(64) std::atomic<void*> slots[kCapacity];
};

void XThreadWorker(PersistentHeap* heap, const BenchConfig& config,
                   int index, int threads, std::vector<HandoffRing>* rings,
                   Barrier* barrier) {
  HandoffRing& out = (*rings)[(index + 1) % threads];
  HandoffRing& in = (*rings)[index];
  std::size_t out_pos = 0;
  std::size_t in_pos = 0;
  barrier->Arrive();
  for (std::uint64_t i = 0; i < config.iters_per_thread; ++i) {
    void* fresh = heap->Alloc(kPayload, 0);
    if (fresh == nullptr) std::exit(2);
    // Hand off; if the neighbor is behind, free locally rather than
    // spin (keeps the loop allocation-bound, not handoff-bound).
    void* expected = nullptr;
    if (!out.slots[out_pos % HandoffRing::kCapacity]
             .compare_exchange_strong(expected, fresh,
                                      std::memory_order_acq_rel)) {
      heap->Free(fresh);
    } else {
      ++out_pos;
    }
    void* handed =
        in.slots[in_pos % HandoffRing::kCapacity].exchange(
            nullptr, std::memory_order_acq_rel);
    if (handed != nullptr) {
      heap->Free(handed);  // allocated by the neighbor
      ++in_pos;
    }
  }
}

/// Frees what the workers left in the rings (the main thread runs this
/// after they joined) and returns its parked blocks, so every block is
/// back on a free list for the heap check.
void FreeLeftovers(PersistentHeap* heap, std::vector<HandoffRing>* rings) {
  for (HandoffRing& ring : *rings) {
    for (auto& slot : ring.slots) {
      void* handed = slot.exchange(nullptr, std::memory_order_acq_rel);
      if (handed != nullptr) heap->Free(handed);
    }
  }
  heap->allocator()->FlushCurrentThreadCache();
}

/// Exits 1 unless the quiesced heap passes CheckHeap with no block
/// parked or leaked.
void CheckOrDie(const PersistentHeap& heap, const std::string& pattern,
                bool magazines, int threads) {
  const tsp::pheap::CheckReport report =
      tsp::pheap::CheckHeap(heap, tsp::pheap::TypeRegistry());
  if (report.ok && report.unaccounted_bytes == 0) return;
  std::fprintf(stderr,
               "heap check failed after %s, %s, %d threads "
               "(%llu bytes unaccounted):\n%s\n",
               pattern.c_str(), magazines ? "magazines" : "shared",
               threads,
               static_cast<unsigned long long>(report.unaccounted_bytes),
               report.ToString().c_str());
  std::exit(1);
}

RunResult RunOne(const std::string& pattern, bool magazines, int threads,
                 const BenchConfig& config) {
  const std::string path = "/dev/shm/tsp_bench_alloc_" +
                           std::to_string(getpid()) + ".heap";
  auto heap = MakeHeap(path, magazines);
  Barrier barrier(threads + 1);  // +1: main arrives last and starts the clock
  std::vector<HandoffRing> rings(pattern == "xthread" ? threads : 0);
  for (auto& ring : rings) {
    for (auto& slot : ring.slots) slot.store(nullptr);
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    if (pattern == "churn") {
      workers.emplace_back(ChurnWorker, heap.get(), config, &barrier);
    } else {
      workers.emplace_back(XThreadWorker, heap.get(), config, t, threads,
                           &rings, &barrier);
    }
  }
  barrier.Arrive();
  const auto start = std::chrono::steady_clock::now();
  for (auto& worker : workers) worker.join();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  FreeLeftovers(heap.get(), &rings);
  CheckOrDie(*heap, pattern, magazines, threads);
  const auto stats = heap->allocator()->GetStats();
  RunResult result;
  result.mops = static_cast<double>(threads) *
                static_cast<double>(config.iters_per_thread) / elapsed /
                1e6;
  result.refill_batches = stats.refill_batches;
  result.drain_batches = stats.drain_batches;
  result.magazine_allocs = stats.magazine_allocs;
  result.shared_allocs = stats.shared_allocs;
  heap->CloseClean();
  heap.reset();
  unlink(path.c_str());
  return result;
}

bool WriteJson(const std::string& json_path, const BenchConfig& config,
               const std::vector<std::string>& lines) {
  const std::size_t slash = json_path.rfind('/');
  if (slash != std::string::npos) {
    const std::string dir = json_path.substr(0, slash);
    if (!dir.empty() && mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                   std::strerror(errno));
      return false;
    }
  }
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n",
               tsp::bench::BuildType());
  std::fprintf(f, "  \"benchmark\": \"alloc\",\n");
  std::fprintf(f, "  \"payload_bytes\": %llu,\n",
               static_cast<unsigned long long>(kPayload));
  std::fprintf(f, "  \"iterations_per_thread\": %llu,\n",
               static_cast<unsigned long long>(config.iters_per_thread));
  std::fprintf(f, "  \"window\": %llu,\n",
               static_cast<unsigned long long>(config.window));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::fprintf(f, "    %s%s\n", lines[i].c_str(),
                 i + 1 < lines.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

std::string JsonLine(const std::string& pattern, int threads,
                     const RunResult& shared, const RunResult& magazine) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"pattern\": \"%s\", \"threads\": %d, \"shared_mops\": %.3f, "
      "\"magazine_mops\": %.3f, \"speedup\": %.2f, "
      "\"refill_batches\": %llu, \"drain_batches\": %llu, "
      "\"magazine_allocs\": %llu, \"shared_path_allocs\": %llu}",
      pattern.c_str(), threads, shared.mops, magazine.mops,
      magazine.mops / shared.mops,
      static_cast<unsigned long long>(magazine.refill_batches),
      static_cast<unsigned long long>(magazine.drain_batches),
      static_cast<unsigned long long>(magazine.magazine_allocs),
      static_cast<unsigned long long>(magazine.shared_allocs));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string json_path = "results/alloc.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--iters") {
      config.iters_per_thread = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--window") {
      config.window = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--json") {
      json_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    }
  }
  if (config.window == 0) config.window = 1;

  std::printf("Persistent-heap allocation throughput, %zu-byte payloads "
              "(Mops = millions of alloc+free pairs/s)\n\n",
              kPayload);
  std::vector<std::string> json_lines;
  for (const std::string pattern : {"churn", "xthread"}) {
    std::printf("  pattern %-8s %8s %12s %12s %9s %9s %9s\n", pattern.c_str(),
                "threads", "shared", "magazines", "speedup", "refills",
                "drains");
    for (const int threads : kThreadCounts) {
      const RunResult shared = RunOne(pattern, false, threads, config);
      const RunResult magazine = RunOne(pattern, true, threads, config);
      std::printf("  %16s %8d %9.3f M %9.3f M %8.2fx %9llu %9llu\n", "",
                  threads, shared.mops, magazine.mops,
                  magazine.mops / shared.mops,
                  static_cast<unsigned long long>(magazine.refill_batches),
                  static_cast<unsigned long long>(magazine.drain_batches));
      json_lines.push_back(JsonLine(pattern, threads, shared, magazine));
    }
    std::printf("\n");
  }
  if (!json_path.empty() && WriteJson(json_path, config, json_lines)) {
    std::printf("json results written to %s\n", json_path.c_str());
  }
  return 0;
}
