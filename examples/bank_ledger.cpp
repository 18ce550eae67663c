// bank_ledger: failure-atomic money transfers with nested locks.
//
// A classic crash-consistency torture case: a transfer debits one
// account and credits another inside a two-lock critical section. A
// crash between the debit and the credit would destroy money — unless
// the interrupted outermost critical section is rolled back. This
// example uses the Atlas runtime in TSP mode and deliberately supports
// crashing itself mid-transfer.
//
//   $ bank_ledger /dev/shm/bank.heap init 64 1000   # 64 accounts x $1000
//   $ bank_ledger /dev/shm/bank.heap run 200000     # random transfers
//                                                   # per thread (4)
//   $ bank_ledger /dev/shm/bank.heap crash          # SIGKILL mid-run
//   $ bank_ledger /dev/shm/bank.heap audit          # recovers + verifies

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "atlas/pmutex.h"
#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "pheap/heap.h"

namespace {

using tsp::atlas::AtlasRuntime;
using tsp::atlas::AtlasThread;
using tsp::atlas::PMutex;
using tsp::pheap::PersistentHeap;

struct Ledger {
  static constexpr std::uint32_t kPersistentTypeId = 0x4C444752;  // "LDGR"
  std::uint64_t account_count;
  std::uint64_t initial_balance;
  std::uint64_t transfers_completed;
  std::int64_t balances[1];  // [account_count]

  static std::size_t AllocationSize(std::uint64_t accounts) {
    return sizeof(Ledger) + (accounts - 1) * sizeof(std::int64_t);
  }
};

struct App {
  std::unique_ptr<PersistentHeap> heap;
  std::unique_ptr<AtlasRuntime> runtime;
  Ledger* ledger = nullptr;
};

bool Open(const std::string& path, App* app) {
  tsp::pheap::RegionOptions options;
  options.size = 128 * 1024 * 1024;
  auto heap = PersistentHeap::OpenOrCreate(path, options);
  if (!heap.ok()) {
    std::fprintf(stderr, "open: %s\n", heap.status().ToString().c_str());
    return false;
  }
  app->heap = std::move(*heap);

  if (app->heap->needs_recovery()) {
    tsp::pheap::TypeRegistry registry;
    registry.Register(tsp::pheap::TypeInfo{Ledger::kPersistentTypeId,
                                           "Ledger", nullptr});
    auto recovery = tsp::atlas::RecoverHeap(app->heap.get(), registry);
    if (!recovery.ok()) {
      std::fprintf(stderr, "recovery: %s\n",
                   recovery.status().ToString().c_str());
      return false;
    }
    std::printf("# %s\n", recovery->atlas.ToString().c_str());
  }

  app->runtime = std::make_unique<AtlasRuntime>(
      app->heap.get(), tsp::PersistencePolicy::TspLogOnly());
  if (auto status = app->runtime->Initialize(); !status.ok()) {
    std::fprintf(stderr, "runtime: %s\n", status.ToString().c_str());
    return false;
  }
  app->ledger = app->heap->root<Ledger>();
  return true;
}

// Audits conservation of money: Σ balances == accounts × initial.
bool Audit(const App& app, bool print) {
  const Ledger* ledger = app.ledger;
  if (ledger == nullptr) {
    std::fprintf(stderr, "no ledger; run `init` first\n");
    return false;
  }
  std::int64_t total = 0;
  std::int64_t min = ledger->balances[0], max = ledger->balances[0];
  for (std::uint64_t i = 0; i < ledger->account_count; ++i) {
    total += ledger->balances[i];
    min = std::min(min, ledger->balances[i]);
    max = std::max(max, ledger->balances[i]);
  }
  const std::int64_t expected =
      static_cast<std::int64_t>(ledger->account_count) *
      static_cast<std::int64_t>(ledger->initial_balance);
  if (print) {
    std::printf("accounts=%llu transfers=%llu total=%lld (expected %lld) "
                "min=%lld max=%lld -> %s\n",
                static_cast<unsigned long long>(ledger->account_count),
                static_cast<unsigned long long>(ledger->transfers_completed),
                static_cast<long long>(total),
                static_cast<long long>(expected),
                static_cast<long long>(min), static_cast<long long>(max),
                total == expected ? "CONSISTENT" : "MONEY DESTROYED");
  }
  return total == expected;
}

// Runs `transfers` random transfers across `threads` workers; if
// `kill_self_at` >= 0, the process SIGKILLs itself after that many
// transfers on thread 0 (mid-critical-section chaos guaranteed by the
// other threads still running).
void RunTransfers(App* app, std::uint64_t transfers, int threads,
                  std::int64_t kill_self_at) {
  Ledger* ledger = app->ledger;
  const std::uint64_t accounts = ledger->account_count;
  std::vector<std::unique_ptr<PMutex>> locks(accounts);
  for (auto& lock : locks) {
    lock = std::make_unique<PMutex>(app->runtime.get());
  }
  PMutex stats_lock(app->runtime.get());

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      AtlasThread* thread = app->runtime->CurrentThread();
      tsp::Random rng(0xB4A2 + static_cast<std::uint64_t>(t));
      for (std::uint64_t i = 0; i < transfers; ++i) {
        std::uint64_t from = rng.Uniform(accounts);
        std::uint64_t to = rng.Uniform(accounts);
        if (from == to) to = (to + 1) % accounts;
        const std::int64_t amount =
            static_cast<std::int64_t>(rng.Uniform(20)) + 1;
        // Lock ordering prevents deadlock; the nested section is one
        // OCS whose interruption rolls back both sides of the transfer.
        const std::uint64_t first = std::min(from, to);
        const std::uint64_t second = std::max(from, to);
        {
          tsp::atlas::PMutexLock outer(locks[first].get());
          // tsp-lint: lock-order(min-index account before max-index account)
          tsp::atlas::PMutexLock inner(locks[second].get());
          thread->Store(&ledger->balances[from],
                        ledger->balances[from] - amount);
          if (t == 0 && kill_self_at >= 0 &&
              static_cast<std::int64_t>(i) == kill_self_at) {
            kill(getpid(), SIGKILL);  // die between debit and credit
          }
          thread->Store(&ledger->balances[to],
                        ledger->balances[to] + amount);
        }
        {
          tsp::atlas::PMutexLock lock(&stats_lock);
          thread->Store(&ledger->transfers_completed,
                        ledger->transfers_completed + 1);
        }
      }
      app->runtime->UnregisterCurrentThread();
    });
  }
  for (auto& worker : workers) worker.join();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <heap-file> {init N BAL | run N | crash | "
                 "audit}\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  const std::string command = argv[2];
  App app;
  if (!Open(path, &app)) return 1;

  if (command == "init" && argc == 5) {
    const std::uint64_t accounts = std::strtoull(argv[3], nullptr, 0);
    const std::uint64_t balance = std::strtoull(argv[4], nullptr, 0);
    auto* ledger = static_cast<Ledger*>(app.heap->Alloc(
        Ledger::AllocationSize(accounts), Ledger::kPersistentTypeId));
    // Pre-publication init: the ledger only becomes reachable at
    // set_root below; a crash before that leaks it to the recovery GC.
    ledger->account_count = accounts;      // tsp-lint: allow(raw-store)
    ledger->initial_balance = balance;     // tsp-lint: allow(raw-store)
    ledger->transfers_completed = 0;       // tsp-lint: allow(raw-store)
    for (std::uint64_t i = 0; i < accounts; ++i) {
      ledger->balances[i] = static_cast<std::int64_t>(balance);  // tsp-lint: allow(raw-store)
    }
    app.heap->set_root(ledger);
    app.ledger = ledger;
    std::printf("initialized %llu accounts at %llu each\n",
                static_cast<unsigned long long>(accounts),
                static_cast<unsigned long long>(balance));
  } else if (command == "run" && argc == 4) {
    if (app.ledger == nullptr) {
      std::fprintf(stderr, "run `init` first\n");
      return 1;
    }
    constexpr int kThreads = 4;
    const std::uint64_t per_thread = std::strtoull(argv[3], nullptr, 0);
    const auto start = std::chrono::steady_clock::now();
    RunTransfers(&app, per_thread, kThreads, -1);
    const std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    // What the run cost and which Atlas commit paths it took, from the
    // metrics registry (zeros when built with -DTSP_OBS=OFF).
    const tsp::obs::MetricsSnapshot metrics =
        tsp::obs::DefaultRegistry().Snapshot();
    const auto counter = [&metrics](const char* name) {
      return static_cast<unsigned long long>(metrics.counter(name));
    };
    std::printf("transfers=%llu us_per_transfer=%.3f ocses_committed=%llu "
                "fast_path_commits=%llu published_commits=%llu "
                "deps_recorded=%llu undo_records=%llu\n",
                static_cast<unsigned long long>(per_thread * kThreads),
                elapsed.count() / static_cast<double>(per_thread * kThreads),
                counter("atlas.ocses_committed"),
                counter("atlas.fast_path_commits"),
                counter("atlas.published_commits"),
                counter("atlas.deps_recorded"),
                counter("atlas.undo_records"));
    Audit(app, true);
  } else if (command == "crash" && argc == 3) {
    if (app.ledger == nullptr) {
      std::fprintf(stderr, "run `init` first\n");
      return 1;
    }
    std::printf("running transfers, dying between a debit and credit...\n");
    std::fflush(stdout);
    RunTransfers(&app, 1 << 30, 4, 5000);
  } else if (command == "audit" && argc == 3) {
    if (!Audit(app, true)) return 1;
  } else {
    std::fprintf(stderr, "unknown command\n");
    return 2;
  }

  app.runtime.reset();
  app.heap->CloseClean();
  return 0;
}
