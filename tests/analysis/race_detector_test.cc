// TSPRace seeded-violation fixtures and clean gates. Each seeded test
// builds the exact persistence-race the detector exists for — a store
// protocol TSAN cannot object to (all accesses are data-race-free
// through each PMutex's own std::mutex) but whose rollback unit is
// inconsistent — and asserts the finding comes out with the right rule
// and address attribution. The clean tests are the other half of the
// acceptance gate: a correctly locked workload must produce ZERO
// findings with the detector armed.

#include "analysis/race_detector.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>

#include "analysis/race_hooks.h"
#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "faultsim/crash_harness.h"
#include "pheap/test_util.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp::analysis {
namespace {

using atlas::AtlasRuntime;
using atlas::AtlasThread;
using atlas::PMutex;
using atlas::PMutexLock;
using pheap::testing::ScopedRegionFile;

pheap::RegionOptions SmallOptions() {
  pheap::RegionOptions options;
  options.size = 32 * 1024 * 1024;
  options.runtime_area_size = 2048 * 1024;
  return options;
}

/// Runs `fn` on a fresh std::thread and joins — each call gets a fresh
/// detector thread identity, so sequential calls model distinct
/// threads with deterministic interleaving.
void OnFreshThread(const std::function<void()>& fn) {
  std::thread worker(fn);
  worker.join();
}

std::string HexAddr(const void* p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIxPTR,
                reinterpret_cast<std::uintptr_t>(p));
  return buf;
}

std::string FindingsText() {
  std::string out;
  for (const report::Finding& finding : RaceDetector::FindingsSnapshot()) {
    out += finding.ToText() + "\n";
  }
  return out;
}

class RaceDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!RaceDetector::compiled_in()) {
      GTEST_SKIP() << "built with -DTSP_ANALYSIS=OFF";
    }
    file_ = std::make_unique<ScopedRegionFile>("tsprace");
    auto heap = pheap::PersistentHeap::Create(file_->path(), SmallOptions());
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    heap_ = std::move(*heap);
    runtime_ = std::make_unique<AtlasRuntime>(
        heap_.get(), PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime_->Initialize().ok());
  }

  void TearDown() override {
    if (RaceDetector::active()) RaceDetector::Disable();
  }

  std::vector<ArenaInfo> Arenas() const {
    const pheap::MappedRegion* region = heap_->region();
    ArenaInfo arena;
    arena.base = region->base();
    arena.size = region->size();
    arena.arena_offset = region->header()->arena_offset;
    arena.arena_size = region->header()->arena_size;
    arena.name = "heap0";
    return {arena};
  }

  void Arm() {
    const Status status = RaceDetector::Enable(Arenas());
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  void Arm(const RaceDetector::Options& options) {
    const Status status = RaceDetector::Enable(Arenas(), options);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  /// One logged store by a throwaway thread, optionally under `mutex`.
  void StoreOn(std::uint64_t* addr, std::uint64_t value, PMutex* mutex) {
    OnFreshThread([&] {
      AtlasThread* thread = runtime_->CurrentThread();
      if (mutex != nullptr) {
        PMutexLock lock(mutex);
        thread->Store(addr, value);
      } else {
        thread->Store(addr, value);
      }
      runtime_->UnregisterCurrentThread();
    });
  }

  std::unique_ptr<ScopedRegionFile> file_;
  std::unique_ptr<pheap::PersistentHeap> heap_;
  std::unique_ptr<AtlasRuntime> runtime_;
};

TEST_F(RaceDetectorTest, UnlockedCrossThreadStoreIsReported) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  Arm();
  StoreOn(value, 1, nullptr);  // virgin -> exclusive(T1): benign
  StoreOn(value, 2, nullptr);  // T2, no locks held: the violation

  const auto findings = RaceDetector::FindingsSnapshot();
  ASSERT_EQ(findings.size(), 1u) << FindingsText();
  EXPECT_EQ(findings[0].tool, "tsprace");
  EXPECT_EQ(findings[0].rule, "unlocked-store");
  EXPECT_EQ(findings[0].severity, report::Severity::kError);
  // Address attribution: the faulting address and its arena name.
  EXPECT_NE(findings[0].location.find(HexAddr(value)), std::string::npos)
      << findings[0].location;
  EXPECT_NE(findings[0].location.find("heap0"), std::string::npos);
  EXPECT_EQ(RaceDetector::error_count(), 1u);
}

TEST_F(RaceDetectorTest, WrongLockStoreIsReported) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex_a(runtime_.get());
  PMutex mutex_b(runtime_.get());
  Arm();
  // Eraser needs three accesses to convict: the first makes the cell
  // exclusive, the second (different thread, different lock) sets
  // C(v) = {b}, the third refines {b} ∩ {a} = ∅.
  StoreOn(value, 1, &mutex_a);
  StoreOn(value, 2, &mutex_b);
  ASSERT_EQ(RaceDetector::FindingsSnapshot().size(), 0u) << FindingsText();
  StoreOn(value, 3, &mutex_a);

  const auto findings = RaceDetector::FindingsSnapshot();
  ASSERT_EQ(findings.size(), 1u) << FindingsText();
  EXPECT_EQ(findings[0].rule, "wrong-lock-store");
  EXPECT_NE(findings[0].location.find(HexAddr(value)), std::string::npos);
  // The message names the locks actually held at the faulting store.
  EXPECT_NE(findings[0].message.find("held="), std::string::npos);
}

TEST_F(RaceDetectorTest, OneReportPerCellNoFloods) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  Arm();
  StoreOn(value, 1, nullptr);
  for (std::uint64_t i = 0; i < 10; ++i) StoreOn(value, i, nullptr);
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 1u) << FindingsText();
}

TEST_F(RaceDetectorTest, ConsistentLockingIsClean) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  Arm();
  for (int i = 0; i < 8; ++i) {
    StoreOn(value, static_cast<std::uint64_t>(i), &mutex);
  }
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 0u) << FindingsText();
  const RaceStats stats = RaceDetector::GetStats();
  EXPECT_GT(stats.races_checked, 0u);
  EXPECT_GT(stats.lockset_refinements, 0u);
}

TEST_F(RaceDetectorTest, NonBlockingRangeIsExemptNotAFalsePositive) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  // Registered before arming (the real registration order: structures
  // declare their §4.1 domains during session open, the env check arms
  // the detector last) and applied at Enable.
  RaceDetector::RegisterNonBlockingRange(value, 8, "test-domain");
  Arm();
  StoreOn(value, 1, nullptr);
  StoreOn(value, 2, nullptr);  // would be unlocked-store if not exempt
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 0u) << FindingsText();
  EXPECT_GT(RaceDetector::GetStats().exempt_accesses, 0u);

  // Registration while armed applies immediately.
  auto* late = static_cast<std::uint64_t*>(heap_->Alloc(8));
  RaceDetector::RegisterNonBlockingRange(late, 8, "late-domain");
  StoreOn(late, 1, nullptr);
  StoreOn(late, 2, nullptr);
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 0u) << FindingsText();
}

TEST_F(RaceDetectorTest, ReallocatedBlockDoesNotInheritLocksetHistory) {
  PMutex mutex_a(runtime_.get());
  PMutex mutex_b(runtime_.get());
  Arm();
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  StoreOn(value, 1, &mutex_a);
  StoreOn(value, 2, &mutex_a);  // shared-modified, C(v) = {a}
  heap_->Free(value);
  auto* recycled = static_cast<std::uint64_t*>(heap_->Alloc(8));
  if (recycled != value) {
    GTEST_SKIP() << "allocator did not recycle the freed block";
  }
  // New object, new discipline: guarded by b now. Without the Alloc
  // reset the stale C(v) = {a} would refine to ∅ on the second store.
  StoreOn(recycled, 3, &mutex_b);
  StoreOn(recycled, 4, &mutex_b);
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 0u) << FindingsText();
}

TEST_F(RaceDetectorTest, FreshSpanInitStoresDoNotSeedLockset) {
  PMutex mutex_a(runtime_.get());
  PMutex mutex_b(runtime_.get());
  Arm();
  std::uint64_t* payload = nullptr;
  // Allocate + initialize inside an OCS under a — the classic create-
  // then-publish pattern. NoteAlloc marks the span fresh, so the init
  // stores stay exclusive to the allocating thread.
  OnFreshThread([&] {
    AtlasThread* thread = runtime_->CurrentThread();
    {
      PMutexLock lock(&mutex_a);
      payload = static_cast<std::uint64_t*>(heap_->Alloc(8));
      thread->NoteAlloc(payload, 0);
      thread->Store(payload, std::uint64_t{7});
    }
    runtime_->UnregisterCurrentThread();
  });
  ASSERT_NE(payload, nullptr);
  // The published object's steady-state discipline is lock b.
  StoreOn(payload, 8, &mutex_b);
  StoreOn(payload, 9, &mutex_b);
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 0u) << FindingsText();
}

TEST_F(RaceDetectorTest, SampledRacyReadWarns) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex_a(runtime_.get());
  PMutex mutex_b(runtime_.get());
  RaceDetector::Options options;
  options.read_sample_rate = 1;  // deterministic: sample every read
  Arm(options);
  StoreOn(value, 1, &mutex_a);
  StoreOn(value, 2, &mutex_b);  // shared-modified, C(v) = {b}
  OnFreshThread([&] { analysis::HookRead(value, 8); });  // no locks held

  const auto findings = RaceDetector::FindingsSnapshot();
  ASSERT_EQ(findings.size(), 1u) << FindingsText();
  EXPECT_EQ(findings[0].rule, "unlocked-read");
  EXPECT_EQ(findings[0].severity, report::Severity::kWarning);
  EXPECT_EQ(RaceDetector::error_count(), 0u);
  EXPECT_GT(RaceDetector::GetStats().reads_sampled, 0u);
}

TEST_F(RaceDetectorTest, CrossShardLockOrderCycleIsReported) {
  // A second runtime on its own heap models a second shard.
  ScopedRegionFile file2("tsprace2");
  auto heap2_or = pheap::PersistentHeap::Create(file2.path(), SmallOptions());
  ASSERT_TRUE(heap2_or.ok()) << heap2_or.status().ToString();
  std::unique_ptr<pheap::PersistentHeap> heap2 = std::move(*heap2_or);
  AtlasRuntime runtime2(heap2.get(), PersistencePolicy::TspLogOnly());
  ASSERT_TRUE(runtime2.Initialize().ok());

  PMutex mutex_a(runtime_.get());
  PMutex mutex_b(&runtime2);
  Arm();
  OnFreshThread([&] {
    {
      PMutexLock outer(&mutex_a);
      PMutexLock inner(&mutex_b);  // edge a -> b
    }
    {
      PMutexLock outer(&mutex_b);
      PMutexLock inner(&mutex_a);  // edge b -> a: the cycle
    }
    runtime_->UnregisterCurrentThread();
    runtime2.UnregisterCurrentThread();
  });

  EXPECT_EQ(RaceDetector::GetStats().lock_order_edges, 2u);
  EXPECT_EQ(RaceDetector::CheckLockOrder(), 1u);
  const auto findings = RaceDetector::FindingsSnapshot();
  ASSERT_EQ(findings.size(), 1u) << FindingsText();
  EXPECT_EQ(findings[0].rule, "lock-order-cycle");
  EXPECT_NE(findings[0].message.find("CROSS-SHARD"), std::string::npos)
      << findings[0].message;
  // Re-checking finds the same cycle but reports it only once.
  EXPECT_EQ(RaceDetector::CheckLockOrder(), 1u);
  EXPECT_EQ(RaceDetector::FindingsSnapshot().size(), 1u);
}

TEST_F(RaceDetectorTest, SingleRuntimeCycleIsDeadlockRisk) {
  PMutex mutex_a(runtime_.get());
  PMutex mutex_b(runtime_.get());
  Arm();
  OnFreshThread([&] {
    {
      PMutexLock outer(&mutex_a);
      PMutexLock inner(&mutex_b);
    }
    {
      PMutexLock outer(&mutex_b);
      PMutexLock inner(&mutex_a);
    }
    runtime_->UnregisterCurrentThread();
  });
  ASSERT_EQ(RaceDetector::CheckLockOrder(), 1u);
  const auto findings = RaceDetector::FindingsSnapshot();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("deadlock risk"), std::string::npos);
}

TEST_F(RaceDetectorTest, SidecarSaveLoadCarriesCounters) {
  auto* value = static_cast<std::uint64_t*>(heap_->Alloc(8));
  PMutex mutex(runtime_.get());
  Arm();
  StoreOn(value, 1, &mutex);
  const std::string path = ::testing::TempDir() + "/tsprace_test.lockgraph";
  std::string error;
  ASSERT_TRUE(RaceDetector::SaveLockGraph(path, &error)) << error;
  LockOrderGraph loaded;
  ASSERT_TRUE(loaded.LoadFrom(path, &error)) << error;
  EXPECT_EQ(loaded.Nodes().size(), 1u);
  EXPECT_GT(loaded.Counters().at("races_checked"), 0u);
  std::remove(path.c_str());
}

TEST_F(RaceDetectorTest, EnableValidatesArguments) {
  EXPECT_FALSE(RaceDetector::Enable({}).ok());
  RaceDetector::Options options;
  options.bytes_per_cell = 12;  // not a power of two
  EXPECT_FALSE(RaceDetector::Enable(Arenas(), options).ok());
  ArenaInfo malformed;
  malformed.base = heap_->region()->base();
  malformed.size = 64;
  malformed.arena_offset = 128;  // offset + size > size
  malformed.arena_size = 64;
  EXPECT_FALSE(RaceDetector::Enable({malformed}).ok());
  Arm();
  EXPECT_FALSE(RaceDetector::Enable(Arenas()).ok()) << "double enable";
}

TEST(RaceDetectorModeTest, EnableFailsWhenCompiledOut) {
  if (RaceDetector::compiled_in()) {
    GTEST_SKIP() << "built with TSP_ANALYSIS=ON";
  }
  const Status status = RaceDetector::Enable({ArenaInfo{}});
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(RaceDetector::active());
}

TEST(RaceDetectorModeTest, EnvFlagParses) {
  setenv("TSP_RACE", "1", 1);
  EXPECT_TRUE(RaceDetector::enabled_by_env());
  setenv("TSP_RACE", "0", 1);
  EXPECT_FALSE(RaceDetector::enabled_by_env());
  unsetenv("TSP_RACE");
  EXPECT_FALSE(RaceDetector::enabled_by_env());
}

// The end-to-end clean gate: TSP_RACE=1 arms the detector over every
// shard of a real session; a correctly locked multi-threaded workload
// must come out with ZERO error findings, nonzero checked accesses,
// and a loadable lock-order sidecar.
TEST(RaceDetectorSessionTest, EnvArmedWorkloadRunsClean) {
  if (!RaceDetector::compiled_in()) {
    GTEST_SKIP() << "built with -DTSP_ANALYSIS=OFF";
  }
  ASSERT_FALSE(RaceDetector::active());
  ScopedRegionFile file("race_session");
  const std::string graph_path =
      ::testing::TempDir() + "/race_session.lockgraph";
  setenv("TSP_RACE", "1", 1);
  setenv("TSP_RACE_GRAPH", graph_path.c_str(), 1);
  {
    workload::MapSession::Config config;
    config.variant = workload::MapVariant::kMutexLogOnly;
    config.path = file.path();
    config.heap_size = 128 * 1024 * 1024;
    config.runtime_area_size = 8 * 1024 * 1024;
    auto session = workload::MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_TRUE((*session)->race_detector_armed());
    EXPECT_TRUE(RaceDetector::active());

    workload::WorkloadOptions wl;
    wl.threads = 2;
    wl.iterations_per_thread = 400;
    wl.high_range = 256;
    workload::RunMapWorkload((*session)->map(), wl);
    (*session)->CloseClean();
  }
  unsetenv("TSP_RACE");
  unsetenv("TSP_RACE_GRAPH");

  EXPECT_FALSE(RaceDetector::active());
  EXPECT_EQ(RaceDetector::error_count(), 0u) << FindingsText();
  const RaceStats stats = RaceDetector::GetStats();
  EXPECT_GT(stats.races_checked, 0u);
  EXPECT_GT(stats.lock_order_edges + stats.races_checked, 0u);

  LockOrderGraph graph;
  std::string error;
  ASSERT_TRUE(graph.LoadFrom(graph_path, &error)) << error;
  EXPECT_GT(graph.Counters().at("races_checked"), 0u);
  EXPECT_TRUE(graph.FindCycles().empty());
  std::remove(graph_path.c_str());
}

// CrashCycleOptions::enable_race_detector arms TSPRace in the forked
// worker; a clean workload must die by SIGKILL (never by the TSPRace
// exit code 5), so the harness reports all cycles consistent.
TEST(RaceDetectorHarnessTest, ArmedCrashCyclesStayConsistent) {
  if (!RaceDetector::compiled_in()) {
    GTEST_SKIP() << "built with -DTSP_ANALYSIS=OFF";
  }
  ScopedRegionFile file("race_harness");
  faultsim::CrashCycleOptions options;
  options.session.variant = workload::MapVariant::kMutexLogOnly;
  options.session.path = file.path();
  options.session.heap_size = 128 * 1024 * 1024;
  options.session.runtime_area_size = 8 * 1024 * 1024;
  options.workload.threads = 2;
  options.workload.high_range = 1024;
  options.cycles = 2;
  options.min_run_ms = 15;
  options.max_run_ms = 60;
  options.enable_race_detector = true;

  const faultsim::CrashCycleReport report =
      faultsim::RunCrashCycles(options);
  EXPECT_TRUE(report.all_ok) << report.ToString();
  EXPECT_EQ(report.cycles_run, options.cycles);
}

}  // namespace
}  // namespace tsp::analysis
