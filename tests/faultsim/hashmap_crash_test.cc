// SIGKILL crash-injection cycles dedicated to the Harris–Michael
// lock-free hash map (§4.1's second non-blocking variant). The generic
// per-variant cycles live in crash_injection_test.cc; this file pushes
// the hash map harder (more cycles, high contention, sanitizer modes in
// the CI race/sanitizer legs) and asserts the §4.1 claims directly:
// recovery does zero rollback work and the final CheckHeap — which the
// harness runs on every shard — is clean.

#include <gtest/gtest.h>

#include "faultsim/crash_harness.h"
#include "pheap/test_util.h"

namespace tsp::faultsim {
namespace {

using pheap::testing::ScopedRegionFile;
using workload::MapVariant;

CrashCycleOptions HashMapOptions(const std::string& path) {
  CrashCycleOptions options;
  options.session.variant = MapVariant::kLockFreeHashMap;
  options.session.path = path;
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.hash_options.bucket_count = 1 << 12;
  options.workload.threads = 4;
  options.cycles = 6;
  options.min_run_ms = 10;
  options.max_run_ms = 50;
  return options;
}

// The §4.1 claim, hash-map edition: SIGKILL mid-workload, recover with
// nothing but the mark-sweep GC — no log replay, no rollback — and the
// heap checks out clean (the harness fails the report otherwise).
TEST(HashMapCrashTest, RecoveryNeedsNoRollback) {
  ScopedRegionFile file("hm_crash_nb");
  CrashCycleOptions options = HashMapOptions(file.path());
  options.workload.high_range = 256;  // high contention per bucket chain
  options.seed = 17;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
  EXPECT_EQ(report.total_stores_undone, 0u);
  EXPECT_EQ(report.total_ocses_rolled_back, 0u);
  EXPECT_GT(report.final_completed_iterations, 0u);
}

// Few buckets + many keys: every bucket chain is long and every insert
// races a helping unlink somewhere, so kills land inside the
// publish/mark/unlink windows Michael's algorithm is built around.
TEST(HashMapCrashTest, LongChainsSurviveRepeatedKills) {
  ScopedRegionFile file("hm_crash_chains");
  CrashCycleOptions options = HashMapOptions(file.path());
  options.session.hash_options.bucket_count = 64;
  options.workload.high_range = 4096;
  options.seed = 0x4A5B;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
}

// The sharded skip list composition gets the same treatment: kills must
// leave every in-heap shard consistent, and recovery stays rollback
// free with one epoch domain spanning all shards.
TEST(ShardedSkipListCrashTest, RecoveryNeedsNoRollback) {
  ScopedRegionFile file("ssl_crash_nb");
  CrashCycleOptions options = HashMapOptions(file.path());
  options.session.variant = MapVariant::kLockFreeSkipListSharded;
  options.session.lockfree_shards = 4;
  options.workload.high_range = 512;
  options.seed = 23;

  const CrashCycleReport report = RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
  EXPECT_EQ(report.total_stores_undone, 0u);
  EXPECT_EQ(report.total_ocses_rolled_back, 0u);
}

}  // namespace
}  // namespace tsp::faultsim
