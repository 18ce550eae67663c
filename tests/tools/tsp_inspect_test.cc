// End-to-end checks of the tsp_inspect binary. On a heap left crashed
// inside an OCS, `check`, `log` and `trace --json` succeed and the undo
// log names the open OCS; once a ring's head/tail are corrupted, `check`
// and `log` exit 1. `header` names a map heap's variant and whether it
// can be attached. On a cleanly closed two-shard domain, `stats --json`
// and `metrics` sum the allocator counters over the shard set.

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <regex>
#include <string>
#include <vector>

#include "atlas/log_layout.h"
#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "obs/recorder.h"
#include "obs/trace_layout.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp {
namespace {

struct InspectRun {
  int exit_code;
  std::string output;
};

/// Runs the built tsp_inspect with `args`, capturing stdout and stderr.
InspectRun Inspect(const std::string& args) {
  const std::string command =
      std::string(TSP_INSPECT_BIN) + " " + args + " 2>&1";
  InspectRun run{-1, ""};
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  std::size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

// A crashed heap whose flight-recorder area this build cannot read is
// refused by PersistentHeap::Open; `trace` names the same reason and
// exits 1 instead of printing an empty recorder.
TEST(TspInspectTest, TraceNamesWhyItCannotReadTheRecorder) {
#ifdef TSP_OBS_DISABLED
  GTEST_SKIP() << "flight recorder compiled out (TSP_OBS=OFF)";
#else
  const bool trace_was_enabled = obs::TraceEnabled();
  obs::SetTraceEnabled(true);
  pheap::testing::ScopedRegionFile file("inspect_trace_version");
  pheap::RegionOptions options;
  options.size = 32u << 20;
  options.runtime_area_size = 8u << 20;  // room for the flight recorder
  {
    auto heap = pheap::PersistentHeap::Create(file.path(), options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    ASSERT_NE((*heap)->recorder(), nullptr);
    auto* header = reinterpret_cast<obs::TraceAreaHeader*>(
        static_cast<char*>((*heap)->runtime_area()) +
        (*heap)->runtime_area_size() -
        obs::TraceReservationBytes((*heap)->runtime_area_size()));
    header->version = obs::kTraceVersion - 1;
  }  // crash: unmapped without CloseClean
  auto refused = pheap::PersistentHeap::Open(file.path());
  ASSERT_FALSE(refused.ok());
  const InspectRun trace = Inspect("trace " + file.path());
  EXPECT_EQ(trace.exit_code, 1) << trace.output;
  EXPECT_NE(trace.output.find(refused.status().message()), std::string::npos)
      << trace.output;
  obs::SetTraceEnabled(trace_was_enabled);
#endif  // TSP_OBS_DISABLED
}

TEST(TspInspectTest, ReadsCrashedHeapAndFailsOnCorruptRing) {
  pheap::testing::ScopedRegionFile file("inspect");
  const std::string& path = file.path();
  pheap::RegionOptions options;
  options.size = 32u << 20;
  options.runtime_area_size = 8u << 20;  // room for the flight recorder
  std::uint16_t thread_id = 0;
  std::uint64_t open_ocs = 0;
  {
    auto heap = pheap::PersistentHeap::Create(path, options);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    auto* root = static_cast<std::uint64_t*>((*heap)->Alloc(16));
    (*heap)->set_root(root);
    atlas::AtlasRuntime runtime(heap->get(), PersistencePolicy::TspLogOnly());
    ASSERT_TRUE(runtime.Initialize().ok());
    atlas::AtlasThread* thread = runtime.CurrentThread();
    atlas::PMutex mutex(&runtime);
    {
      atlas::PMutexLock lock(&mutex);
      thread->Store(&root[0], std::uint64_t{1});
    }
    atlas::PLockWord word;
    thread->OnAcquire(&word, 7);
    thread->Store(&root[1], std::uint64_t{2});
    thread_id = thread->thread_id();
    open_ocs = thread->current_ocs();
  }  // crash: unmapped without CloseClean, the second OCS still open

  const InspectRun check = Inspect("check " + path);
  EXPECT_EQ(check.exit_code, 0) << check.output;
  const InspectRun log = Inspect("log " + path);
  EXPECT_EQ(log.exit_code, 0) << log.output;
  EXPECT_NE(log.output.find("open_ocs=" + std::to_string(open_ocs)),
            std::string::npos)
      << log.output;
  const InspectRun trace = Inspect("trace --json " + path);
  EXPECT_EQ(trace.exit_code, 0) << trace.output;
  const std::size_t open_list = trace.output.find("\"undo_log_open\":[");
  ASSERT_NE(open_list, std::string::npos) << trace.output;
  EXPECT_NE(trace.output.find("{\"thread\":" + std::to_string(thread_id) +
                                  ",\"ocs\":" + std::to_string(open_ocs),
                              open_list),
            std::string::npos)
      << trace.output;

  {
    // Reopening does not recover; the heap stays crashed.
    auto heap = pheap::PersistentHeap::Open(path);
    ASSERT_TRUE(heap.ok()) << heap.status().ToString();
    ASSERT_TRUE((*heap)->needs_recovery());
    const atlas::AtlasArea area(
        (*heap)->runtime_area(),
        atlas::AtlasAreaSize((*heap)->runtime_area_size()));
    atlas::ThreadLogHeader* slot = area.slot(thread_id);
    slot->head.store(slot->tail.load() + 5);  // head past tail
  }
  const InspectRun corrupt_check = Inspect("check " + path);
  EXPECT_EQ(corrupt_check.exit_code, 1) << corrupt_check.output;
  EXPECT_NE(corrupt_check.output.find("indices are corrupt"),
            std::string::npos)
      << corrupt_check.output;
  const InspectRun corrupt_log = Inspect("log " + path);
  EXPECT_EQ(corrupt_log.exit_code, 1) << corrupt_log.output;
}

// `header` on a MapSession heap names its variant and shard count, and
// says whether that variant can be attached and why, from the variant
// table: a lock-free map cannot (its plan has no Atlas mode), and a
// log-only map can when every lock stripe gets a robust lock word. The
// least buckets_per_lock it prints is the one MapSession's attach needs:
// 300000 requested buckets round up to 524288, more stripes (525) at the
// default 1000 buckets per lock than the 256 words.
TEST(TspInspectTest, HeaderNamesSessionVariantAndWhetherItAttaches) {
  struct Case {
    workload::MapVariant variant;
    std::uint64_t buckets;
    const char* attach;
    std::uint64_t least_buckets_per_lock;  // 0: attach is refused
  };
  for (const Case& c :
       {Case{workload::MapVariant::kMutexLogOnly, 1 << 10,
             "yes if buckets_per_lock >= 4 \\(Atlas mode log-only; 1024 "
             "buckets, 256 robust lock words",
             4},
        Case{workload::MapVariant::kMutexLogOnly, 300000,
             "yes if buckets_per_lock >= 2048 \\(Atlas mode log-only; "
             "524288 buckets, 256 robust lock words",
             2048},
        Case{workload::MapVariant::kLockFreeHashMap, 1 << 10,
             "no \\(multi-process attach needs an Atlas mode", 0}}) {
    const std::string name = workload::MapVariantName(c.variant);
    SCOPED_TRACE(name + " " + std::to_string(c.buckets));
    pheap::testing::ScopedRegionFile file("inspect_header");
    workload::MapSession::Config config;
    config.variant = c.variant;
    config.path = file.path();
    config.heap_size = 32u << 20;
    config.runtime_area_size = 8u << 20;
    config.hash_options.bucket_count = c.buckets;
    {
      auto session = workload::MapSession::OpenOrCreate(config);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      (*session)->CloseClean();
    }
    const InspectRun header = Inspect("header " + file.path());
    ASSERT_EQ(header.exit_code, 0) << header.output;
    EXPECT_TRUE(std::regex_search(
        header.output, std::regex("map variant: +" + name + "\n")))
        << header.output;
    EXPECT_TRUE(
        std::regex_search(header.output, std::regex("map shards: +1\n")))
        << header.output;
    EXPECT_TRUE(std::regex_search(
        header.output, std::regex(std::string("attach: +") + c.attach)))
        << header.output;
    if (c.least_buckets_per_lock == 0) continue;

    config.attach = true;
    config.hash_options.buckets_per_lock = c.least_buckets_per_lock - 1;
    auto refused = workload::MapSession::OpenOrCreate(config);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition)
        << refused.status().ToString();
    config.hash_options.buckets_per_lock = c.least_buckets_per_lock;
    auto joined = workload::MapSession::OpenOrCreate(config);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    (*joined)->CloseDetach();
  }
}

/// Every value of `"key":<integer>` in `json`, in order.
std::vector<std::uint64_t> IntegerFields(const std::string& json,
                                         const std::string& key) {
  std::vector<std::uint64_t> values;
  const std::regex field("\"" + key + "\":([0-9]+)");
  for (std::sregex_iterator it(json.begin(), json.end(), field), end;
       it != end; ++it) {
    values.push_back(std::stoull((*it)[1].str()));
  }
  return values;
}

TEST(TspInspectTest, StatsAndMetricsSumTheShardSet) {
  workload::MapSession::Config config;
  config.variant = workload::MapVariant::kMutexLogOnly;
  config.path = pheap::testing::UniqueRegionPath("inspect_shards");
  config.heap_size = 64u << 20;
  config.runtime_area_size = 8u << 20;
  config.hash_options.bucket_count = 1 << 12;
  config.shards = 2;
  const std::vector<std::string> paths =
      workload::MapSession::ShardPaths(config);
  struct Unlinker {
    const std::vector<std::string>& paths;
    ~Unlinker() {
      for (const std::string& path : paths) ::unlink(path.c_str());
    }
  } unlinker{paths};
  {
    auto session = workload::MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    workload::WorkloadOptions workload;
    workload.threads = 2;
    workload.iterations_per_thread = 2000;
    workload.high_range = 4096;
    workload::RunMapWorkload((*session)->map(), workload);
    (*session)->CloseClean();
  }
  const std::string shard_args = paths[0] + " " + paths[1];

  const InspectRun stats = Inspect("stats --json " + shard_args);
  ASSERT_EQ(stats.exit_code, 0) << stats.output;
  // The aggregate comes first, then one entry per shard.
  const std::vector<std::uint64_t> total_allocs =
      IntegerFields(stats.output, "total_allocs");
  ASSERT_EQ(total_allocs.size(), 3u) << stats.output;
  EXPECT_GT(total_allocs[1], 0u);
  EXPECT_GT(total_allocs[2], 0u);
  EXPECT_EQ(total_allocs[0], total_allocs[1] + total_allocs[2]);
  // Arena use, per shard and summed: carved bytes within each arena.
  const std::vector<std::uint64_t> arena_used =
      IntegerFields(stats.output, "arena_used_bytes");
  const std::vector<std::uint64_t> arena_bytes =
      IntegerFields(stats.output, "arena_bytes");
  ASSERT_EQ(arena_used.size(), 3u) << stats.output;
  ASSERT_EQ(arena_bytes.size(), 3u) << stats.output;
  for (int shard = 1; shard <= 2; ++shard) {
    EXPECT_GT(arena_used[shard], 0u);
    EXPECT_LT(arena_used[shard], arena_bytes[shard]);
  }
  EXPECT_EQ(arena_used[0], arena_used[1] + arena_used[2]);
  EXPECT_EQ(arena_bytes[0], arena_bytes[1] + arena_bytes[2]);
  const std::vector<std::uint64_t> shared_allocs =
      IntegerFields(stats.output, "shared_allocs");
  ASSERT_EQ(shared_allocs.size(), 3u) << stats.output;
  EXPECT_GT(shared_allocs[1], 0u);
  EXPECT_GT(shared_allocs[2], 0u);

  const InspectRun metrics = Inspect("metrics " + shard_args);
  ASSERT_EQ(metrics.exit_code, 0) << metrics.output;
  const std::vector<std::uint64_t> metric =
      IntegerFields(metrics.output, "alloc.shared_allocs");
#ifdef TSP_OBS_DISABLED
  EXPECT_TRUE(metric.empty()) << metrics.output;
#else
  ASSERT_EQ(metric.size(), 1u) << metrics.output;
  EXPECT_EQ(metric[0], shared_allocs[1] + shared_allocs[2]);
#endif
}

}  // namespace
}  // namespace tsp
