// The paper's §5 fault-injection experiment (E2): SIGKILL a worker
// process mid-workload, recover, and verify Equations (1) and (2).
// "Both our mutex-based and non-blocking map implementations recovered
// completely successfully after hundreds of injected process crashes."
// The full hundreds-of-crashes run lives in examples/crash_torture;
// these tests run enough cycles per variant to exercise every recovery
// path (incomplete OCSes, cascades, GC) while staying fast.

#include "faultsim/crash_harness.h"

#include <gtest/gtest.h>

#include <cctype>

#include "pheap/test_util.h"
#include "workload/map_session.h"

namespace tsp::faultsim {
namespace {

using pheap::testing::ScopedRegionFile;
using workload::MapVariant;
using workload::MapVariantName;

class CrashInjectionTest : public ::testing::TestWithParam<MapVariant> {};

TEST_P(CrashInjectionTest, RecoversConsistentlyAfterRepeatedKills) {
  ScopedRegionFile file("crash");
  CrashCycleOptions options;
  options.session.variant = GetParam();
  options.session.path = file.path();
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 16 * 1024 * 1024;
  options.workload.threads = 4;
  options.workload.high_range = 4096;
  options.cycles = 6;
  options.min_run_ms = 15;
  options.max_run_ms = 80;
  options.seed = 0xC0FFEE;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
  EXPECT_GT(report.final_completed_iterations, 0u)
      << "workers should have made progress before dying";
}

// Every variant whose plan survives some failure: all but mutex-native.
std::vector<MapVariant> CrashResilientVariants() {
  std::vector<MapVariant> variants;
  for (const workload::MapVariantRow& row : workload::MapVariantRows()) {
    if (!row.requirements.tolerated.empty()) variants.push_back(row.variant);
  }
  return variants;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CrashInjectionTest, ::testing::ValuesIn(CrashResilientVariants()),
    [](const auto& info) {
      std::string name = MapVariantName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The Atlas variants must actually exercise rollback across the run:
// with 4 threads being SIGKILLed mid-OCS repeatedly, at least one cycle
// should interrupt an OCS.
TEST(CrashInjectionAtlasTest, RollbackPathIsExercised) {
  ScopedRegionFile file("crash_rollback");
  CrashCycleOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path = file.path();
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 16 * 1024 * 1024;
  options.workload.threads = 4;
  options.workload.high_range = 256;  // high contention
  // Lazy bracket publication shrinks the ring-visible window of an OCS
  // to [first capture, commit) — a few dozen nanoseconds per operation
  // — so whether any fixed number of kills lands inside it is a coin
  // flip. Run batches until one does, with a cap generous enough that
  // reaching it means the rollback path is genuinely unreachable (at
  // the observed ~10%/cycle hit rate, 120 cycles fail spuriously with
  // probability ~1e-5).
  options.cycles = 10;
  options.min_run_ms = 10;
  options.max_run_ms = 50;

  int recoveries_with_rollback = 0;
  int cycles_run = 0;
  for (int batch = 0; batch < 12 && recoveries_with_rollback == 0;
       ++batch) {
    options.seed = 7 + batch;
    const CrashCycleReport report = RunCrashCycles(options);
    EXPECT_TRUE(report.all_ok) << report.ToString();
    recoveries_with_rollback += report.recoveries_with_rollback;
    cycles_run += report.cycles_run;
  }
  EXPECT_GT(recoveries_with_rollback, 0)
      << "no kill interrupted a ring-visible OCS in " << cycles_run
      << " cycles; the rollback path is not being exercised";
  // Whether the interrupted OCS had already issued stores depends on
  // where the scheduler parked each thread (on a single-core host the
  // kill usually lands just after an acquire), so stores_undone can
  // legitimately be zero here; the deterministic rollback-content tests
  // live in atlas/recovery_test.cc.
}

// Crash/recover with a tiny sequence-lease block (2 stamps) and high
// lock contention: leases are constantly exhausted and overtaken, so
// recovery must replay logs whose stamps come from heavily interleaved,
// frequently-resynced leases. Guards the leased-stamp replay invariant
// end to end (crash → reverse-stamp rollback → Eq. (1)/(2) checks).
TEST(CrashInjectionAtlasTest, RecoversWithTinyLeaseBlocks) {
  ScopedRegionFile file("crash_lease");
  CrashCycleOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path = file.path();
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 16 * 1024 * 1024;
  options.session.seq_block_size = 2;  // force constant re-lease/resync
  options.workload.threads = 4;
  options.workload.high_range = 256;  // high contention
  options.cycles = 8;
  options.min_run_ms = 10;
  options.max_run_ms = 50;
  options.seed = 0x5EA5E;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
}

// Kill/recover cycles with TSPSan armed in every worker: the arena is
// PROT_READ and each logged store runs through an mprotect write
// window. Proves the whole Atlas fast path honors the instrumentation
// contract under concurrency and SIGKILL — any unlogged store would
// abort the worker (exit instead of kill), failing the cycle.
TEST(CrashInjectionTspSanTest, RecoversWithSanitizerArmed) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSPSan's SIGSEGV handler conflicts with compiler "
                  "sanitizers";
#endif
  pheap::testing::ScopedRegionFile file("crash_tspsan");
  CrashCycleOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path = file.path();
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 16 * 1024 * 1024;
  options.workload.threads = 4;
  options.workload.high_range = 512;
  options.cycles = 4;  // windows make workers slower; fewer cycles
  options.min_run_ms = 15;
  options.max_run_ms = 60;
  options.seed = 0x7359;
  options.enable_tspsan = true;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
  EXPECT_GT(report.final_completed_iterations, 0u)
      << "sanitized workers should still make progress";
}

// The non-blocking variant must recover with zero rollback work — the
// §4.1 claim that no mechanism beyond TSP is needed.
TEST(CrashInjectionSkipListTest, RecoveryNeedsNoRollback) {
  ScopedRegionFile file("crash_nb");
  CrashCycleOptions options;
  options.session.variant = MapVariant::kLockFreeSkipList;
  options.session.path = file.path();
  options.session.heap_size = 256 * 1024 * 1024;
  options.workload.threads = 4;
  options.workload.high_range = 256;
  options.cycles = 6;
  options.min_run_ms = 10;
  options.max_run_ms = 50;
  options.seed = 13;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.total_stores_undone, 0u);
  EXPECT_EQ(report.total_ocses_rolled_back, 0u);
}

}  // namespace
}  // namespace tsp::faultsim
