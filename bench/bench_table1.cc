// E1: regenerates Table 1 of the paper — throughput (millions of
// worker iterations/second) of the §5.1 map workload for the four
// variants:
//
//          Mutex-Based
//   no Atlas | log only | log + flush | Non-Blocking
//
// plus the derived rows the paper reports in §5.2: the overhead of
// Atlas fortification in TSP mode (log-only vs native), the overhead
// without TSP (log+flush vs native), and the TSP gain (log-only vs
// log+flush; the paper measured +49% desktop / +42% server).
//
// Absolute numbers depend on the host; the *shape* — native > log-only
// > log+flush, with a substantial TSP gain — is the reproduced result.
//
// A shard-count sweep (--shards 1,4) repeats the whole table with the
// map split across N shard heaps (total arena size held constant), to
// show the Table-1 shape survives sharding and to expose any routing
// overhead. The JSON output carries one entry per shard count in
// "runs".
//
// Besides the text table, the run is dumped as machine-readable JSON
// (per-variant throughput, flush and sequence-lease counters, derived
// percentages, shape verdict) for the plotting/CI tooling.
//
// Flags: --threads N    (default 8, as in the paper)
//        --iters N      (per thread, default 150000)
//        --high N       (|H|, default 2^20 as in a "much larger" range)
//        --shards LIST  (comma-separated shard counts, default "1")
//        --json PATH    (default results/table1.json; "" disables)
//        --max-log-overhead-pct P  (exit nonzero if the canonical
//                        single-heap log-only overhead vs native
//                        exceeds P percent; <=0 disables, default off)
//        --procs N      (N > 1 switches to the E14 multi-process kill
//                        drill: N processes attach one log-only domain
//                        (first --shards entry) and churn it while
//                        random workers are SIGKILLed and replaced;
//                        writes robust-lock/harvest counters to
//                        results/mproc.json — --json overrides — and
//                        exits nonzero unless the final attach verifies
//                        clean. --threads is split across the workers.)
//        --kills N      (SIGKILLs in the --procs drill; default 3N)
// Both `--flag value` and `--flag=value` forms are accepted.

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "atlas/runtime.h"
#include "bench_util.h"
#include "common/flush.h"
#include "faultsim/crash_harness.h"
#include "obs/metrics.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace {

using tsp::atlas::AtlasRuntimeStats;
using tsp::workload::MapSession;
using tsp::workload::MapVariant;
using tsp::workload::MapVariantName;
using tsp::workload::RunMapWorkload;
using tsp::workload::WorkloadOptions;
using tsp::workload::WorkloadResult;

struct Row {
  const char* label;
  MapVariant variant;
  double miters = 0;
  std::uint64_t lines_flushed = 0;
  std::uint64_t fences = 0;
  /// Atlas counters; all zero for the unlogged variants. Summed across
  /// shard runtimes in sharded runs.
  AtlasRuntimeStats atlas = {};
  /// Allocator magazine counters (summed across shard heaps): how much
  /// of the allocation traffic stayed on thread-local magazines vs the
  /// shared CAS lines, and how much crossed threads via the remote-free
  /// inboxes.
  std::uint64_t magazine_allocs = 0;
  std::uint64_t shared_allocs = 0;
  std::uint64_t remote_frees = 0;
  /// Unified metrics registry snapshot taken while the variant's session
  /// was still open (the pull sources unregister at close). Already JSON.
  std::string metrics_json = "{}";
};

/// One full table at a given shard count: the paper's four variants
/// plus the two extra non-blocking implementations (in-heap sharded
/// skip list, Harris-Michael hash map). The paper-shape check and the
/// derived §5.2 percentages only look at the first four rows.
struct RunSet {
  int shards = 1;
  Row rows[6] = {
      {"no Atlas (native)", MapVariant::kMutexNative},
      {"log only (TSP)", MapVariant::kMutexLogOnly},
      {"log + flush (non-TSP)", MapVariant::kMutexLogFlush},
      {"non-blocking skip list", MapVariant::kLockFreeSkipList},
      {"nb skip list (sharded)", MapVariant::kLockFreeSkipListSharded},
      {"nb hash map", MapVariant::kLockFreeHashMap},
  };
  double native() const { return rows[0].miters; }
  double log_only() const { return rows[1].miters; }
  double log_flush() const { return rows[2].miters; }
  bool shape_holds() const {
    return native() > log_only() && log_only() > log_flush();
  }
};

constexpr std::size_t kRowCount = 6;
constexpr std::uint64_t kTotalArenaBytes = 1536ULL * 1024 * 1024;

void RunVariant(const WorkloadOptions& workload, int shards, Row* row) {
  const std::string path =
      "/dev/shm/tsp_table1_" + std::to_string(getpid()) + ".heap";

  MapSession::Config config;
  config.variant = row->variant;
  config.path = path;
  // Hold the TOTAL arena constant across shard counts so the sweep
  // compares routing/locality, not memory budget.
  config.heap_size = kTotalArenaBytes / static_cast<unsigned>(shards);
  config.runtime_area_size = 64 * 1024 * 1024;
  config.shards = shards;
  config.hash_options.bucket_count = (1 << 20) / static_cast<unsigned>(shards);
  config.hash_options.buckets_per_lock = 1000;  // the paper's granularity

  for (const std::string& shard_path : MapSession::ShardPaths(config)) {
    unlink(shard_path.c_str());
  }

  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }

  tsp::GlobalFlushStats().Reset();
  tsp::obs::DefaultRegistry().ResetOwned();
  const WorkloadResult result =
      RunMapWorkload((*session)->map(), workload);
  row->miters = result.millions_iter_per_sec;
  row->lines_flushed = tsp::GlobalFlushStats().lines_flushed.load();
  row->fences = tsp::GlobalFlushStats().fences.load();
  for (int s = 0; s < (*session)->shard_count(); ++s) {
    const tsp::pheap::AllocatorStats alloc_stats =
        (*session)->heap(s)->GetAllocatorStats();
    row->magazine_allocs += alloc_stats.magazine_allocs;
    row->shared_allocs += alloc_stats.shared_allocs;
    row->remote_frees += alloc_stats.remote_frees;
    if ((*session)->runtime(s) == nullptr) continue;
    const AtlasRuntimeStats stats = (*session)->runtime(s)->GetStats();
    row->atlas.undo_records += stats.undo_records;
    row->atlas.seq_blocks_leased += stats.seq_blocks_leased;
    row->atlas.seq_resyncs += stats.seq_resyncs;
    row->atlas.batched_publishes += stats.batched_publishes;
    row->atlas.elided_fresh += stats.elided_fresh;
    row->atlas.flit_repeat_hits += stats.flit_repeat_hits;
    row->atlas.flit_rearms += stats.flit_rearms;
    row->atlas.addrset_shrinks += stats.addrset_shrinks;
  }
  row->metrics_json = tsp::obs::DefaultRegistry().Snapshot().ToJson();

  (*session)->CloseClean();
  session->reset();
  for (const std::string& shard_path : MapSession::ShardPaths(config)) {
    unlink(shard_path.c_str());
  }
}

/// Writes results as JSON. No dependency-free JSON library in-tree, and
/// the structure is flat, so emit it by hand.
bool WriteJson(const std::string& json_path, const WorkloadOptions& workload,
               const std::vector<RunSet>& runs) {
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
  std::fprintf(f, "  \"benchmark\": \"table1\",\n");
  std::fprintf(f, "  \"build_type\": \"%s\",\n", tsp::bench::BuildType());
  std::fprintf(f, "  \"threads\": %d,\n", workload.threads);
  std::fprintf(f, "  \"iterations_per_thread\": %llu,\n",
               static_cast<unsigned long long>(
                   workload.iterations_per_thread));
  std::fprintf(f, "  \"high_range\": %llu,\n",
               static_cast<unsigned long long>(workload.high_range));
  std::fprintf(f, "  \"flush_instruction\": \"%s\",\n",
               tsp::FlushInstructionName(tsp::BestFlushInstruction()));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RunSet& run = runs[r];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"shards\": %d,\n", run.shards);
    std::fprintf(f, "      \"variants\": [\n");
    for (std::size_t i = 0; i < kRowCount; ++i) {
      const Row& row = run.rows[i];
      std::fprintf(f, "        {\n");
      std::fprintf(f, "          \"variant\": \"%s\",\n",
                   MapVariantName(row.variant));
      std::fprintf(f, "          \"label\": \"%s\",\n", row.label);
      std::fprintf(f, "          \"miters_per_sec\": %.6f,\n", row.miters);
      std::fprintf(f, "          \"lines_flushed\": %llu,\n",
                   static_cast<unsigned long long>(row.lines_flushed));
      std::fprintf(f, "          \"fences\": %llu,\n",
                   static_cast<unsigned long long>(row.fences));
      std::fprintf(f, "          \"undo_records\": %llu,\n",
                   static_cast<unsigned long long>(row.atlas.undo_records));
      std::fprintf(f, "          \"seq_blocks_leased\": %llu,\n",
                   static_cast<unsigned long long>(
                       row.atlas.seq_blocks_leased));
      std::fprintf(f, "          \"seq_resyncs\": %llu,\n",
                   static_cast<unsigned long long>(row.atlas.seq_resyncs));
      std::fprintf(f, "          \"batched_publishes\": %llu,\n",
                   static_cast<unsigned long long>(
                       row.atlas.batched_publishes));
      std::fprintf(f, "          \"elided_fresh\": %llu,\n",
                   static_cast<unsigned long long>(row.atlas.elided_fresh));
      std::fprintf(f, "          \"flit_repeat_hits\": %llu,\n",
                   static_cast<unsigned long long>(
                       row.atlas.flit_repeat_hits));
      std::fprintf(f, "          \"flit_rearms\": %llu,\n",
                   static_cast<unsigned long long>(row.atlas.flit_rearms));
      std::fprintf(f, "          \"addrset_shrinks\": %llu,\n",
                   static_cast<unsigned long long>(
                       row.atlas.addrset_shrinks));
      std::fprintf(f, "          \"magazine_allocs\": %llu,\n",
                   static_cast<unsigned long long>(row.magazine_allocs));
      std::fprintf(f, "          \"shared_allocs\": %llu,\n",
                   static_cast<unsigned long long>(row.shared_allocs));
      std::fprintf(f, "          \"remote_frees\": %llu,\n",
                   static_cast<unsigned long long>(row.remote_frees));
      std::fprintf(f, "          \"metrics\": %s\n",
                   row.metrics_json.c_str());
      std::fprintf(f, "        }%s\n", i + 1 < kRowCount ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f, "      \"derived\": {\n");
    std::fprintf(f, "        \"log_only_overhead_pct\": %.2f,\n",
                 (1 - run.log_only() / run.native()) * 100);
    std::fprintf(f, "        \"log_flush_overhead_pct\": %.2f,\n",
                 (1 - run.log_flush() / run.native()) * 100);
    std::fprintf(f, "        \"tsp_gain_pct\": %.2f\n",
                 (run.log_only() / run.log_flush() - 1) * 100);
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"shape_holds\": %s\n",
                 run.shape_holds() ? "true" : "false");
    std::fprintf(f, "    }%s\n", r + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// E14: the multi-process kill drill. N workers attach one log-only
/// domain and churn it while random workers are SIGKILLed and replaced;
/// the persistent robust-table counters (steals, dead-owner rollbacks,
/// slot harvests) plus the final verification verdict land in
/// `json_path`. Returns the process exit code.
int RunMproc(int procs, int kills, int shards,
             const WorkloadOptions& workload, const std::string& json_path) {
  tsp::faultsim::MultiProcessCrashOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path =
      "/dev/shm/tsp_mproc_" + std::to_string(getpid()) + ".heap";
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 64 * 1024 * 1024;
  options.session.shards = shards;
  options.workload = workload;
  // --threads is the total budget; split it across the workers.
  options.workload.threads = workload.threads / procs > 0
                                 ? workload.threads / procs
                                 : 1;
  options.workers = procs;
  options.kills = kills > 0 ? kills : 3 * procs;

  std::printf("Multi-process kill drill: %d attached workers x %d "
              "threads, %d shard%s, %d SIGKILLs\n",
              options.workers, options.workload.threads, shards,
              shards == 1 ? "" : "s", options.kills);
  const tsp::faultsim::MultiProcessCrashReport report =
      tsp::faultsim::RunMultiProcessCrashCycles(options);
  std::printf("%s\n", report.ToString().c_str());
  for (const std::string& path : MapSession::ShardPaths(options.session)) {
    unlink(path.c_str());
  }

  if (!json_path.empty()) {
    const std::size_t slash = json_path.rfind('/');
    if (slash != std::string::npos) {
      const std::string dir = json_path.substr(0, slash);
      if (!dir.empty() && mkdir(dir.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                     std::strerror(errno));
        return 1;
      }
    }
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"benchmark\": \"mproc\",\n");
    std::fprintf(f, "  \"procs\": %d,\n", options.workers);
    std::fprintf(f, "  \"threads_per_proc\": %d,\n",
                 options.workload.threads);
    std::fprintf(f, "  \"shards\": %d,\n", shards);
    std::fprintf(f, "  \"kills\": %d,\n", report.kills_delivered);
    std::fprintf(f, "  \"workers_spawned\": %d,\n", report.workers_spawned);
    std::fprintf(f, "  \"atlas\": {\n");
    std::fprintf(f, "    \"robust_steals\": %llu,\n",
                 static_cast<unsigned long long>(report.robust_steals));
    std::fprintf(f, "    \"dead_owner_rollbacks\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.dead_owner_rollbacks));
    std::fprintf(f, "    \"slots_harvested\": %llu,\n",
                 static_cast<unsigned long long>(report.slots_harvested));
    std::fprintf(f, "    \"nested_release_hazards\": %llu\n",
                 static_cast<unsigned long long>(
                     report.nested_release_hazards));
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"wedged_locks\": %llu,\n",
                 static_cast<unsigned long long>(report.wedged_locks));
    std::fprintf(f, "  \"completed_iterations\": %llu,\n",
                 static_cast<unsigned long long>(
                     report.final_completed_iterations));
    std::fprintf(f, "  \"all_ok\": %s\n", report.all_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json results written to %s\n", json_path.c_str());
  }
  return report.all_ok ? 0 : 1;
}

std::vector<int> ParseShardList(const std::string& list) {
  std::vector<int> shards;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    if (!token.empty()) {
      const int n = std::atoi(token.c_str());
      if (n >= 1) shards.push_back(n);
    }
    start = comma + 1;
  }
  if (shards.empty()) shards.push_back(1);
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadOptions workload;
  workload.threads = 8;
  workload.iterations_per_thread = 150000;
  workload.high_range = 1 << 20;
  std::string json_path = "results/table1.json";
  bool json_path_set = false;
  std::string shard_list = "1";
  double max_log_overhead_pct = 0;  // <=0: no gate
  int procs = 1;
  int kills = 0;  // 0: default 3 * procs
  for (int i = 1; i < argc; ++i) {
    // Accept `--flag value` and `--flag=value`.
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    if (flag == "--threads") {
      workload.threads = std::atoi(value.c_str());
    } else if (flag == "--iters") {
      workload.iterations_per_thread = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--high") {
      workload.high_range = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--shards") {
      shard_list = value;
    } else if (flag == "--json") {
      json_path = value;
      json_path_set = true;
    } else if (flag == "--max-log-overhead-pct") {
      max_log_overhead_pct = std::atof(value.c_str());
    } else if (flag == "--procs") {
      procs = std::atoi(value.c_str());
    } else if (flag == "--kills") {
      kills = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  if (procs > 1) {
    return RunMproc(procs, kills, ParseShardList(shard_list).front(),
                    workload,
                    json_path_set ? json_path : "results/mproc.json");
  }

  std::printf("Table 1 reproduction: map workload, %d worker threads, "
              "|H|=%llu, %llu iterations/thread\n",
              workload.threads,
              static_cast<unsigned long long>(workload.high_range),
              static_cast<unsigned long long>(
                  workload.iterations_per_thread));
  std::printf("(each iteration = 3 atomic map operations; flush insn: %s; "
              "build: %s)\n",
              tsp::FlushInstructionName(tsp::BestFlushInstruction()),
              tsp::bench::BuildType());

  std::vector<RunSet> runs;
  for (const int shards : ParseShardList(shard_list)) {
    RunSet run;
    run.shards = shards;
    std::printf("\n--- %d shard heap%s (total arena %llu MB) ---\n", shards,
                shards == 1 ? "" : "s",
                static_cast<unsigned long long>(kTotalArenaBytes >> 20));
    std::printf("  %-26s %14s %16s %14s %12s %14s\n", "variant", "Miter/s",
                "lines flushed", "seq leases", "resyncs", "mag allocs");
    for (Row& row : run.rows) {
      RunVariant(workload, shards, &row);
      std::printf("  %-26s %14.3f %16llu %14llu %12llu %14llu\n", row.label,
                  row.miters,
                  static_cast<unsigned long long>(row.lines_flushed),
                  static_cast<unsigned long long>(row.atlas.seq_blocks_leased),
                  static_cast<unsigned long long>(row.atlas.seq_resyncs),
                  static_cast<unsigned long long>(row.magazine_allocs));
    }
    const Row& logged = run.rows[1];
    std::printf("\nUndo-log diet (log-only run): %llu ring records, %llu "
                "slot arms, %llu fresh-store elisions\n",
                static_cast<unsigned long long>(logged.atlas.undo_records),
                static_cast<unsigned long long>(logged.atlas.flit_rearms),
                static_cast<unsigned long long>(logged.atlas.elided_fresh));
    std::printf("\nDerived (paper §5.2 reports desktop/server):\n");
    std::printf("  Atlas log-only overhead vs native:   %5.1f%%  "
                "(paper: ~35%% / ~30%%)\n",
                (1 - run.log_only() / run.native()) * 100);
    std::printf("  Atlas log+flush overhead vs native:  %5.1f%%  "
                "(paper: ~57%% / ~50%%)\n",
                (1 - run.log_flush() / run.native()) * 100);
    std::printf("  TSP gain (log-only vs log+flush):    %5.1f%%  "
                "(paper: +49%% / +42%%)\n",
                (run.log_only() / run.log_flush() - 1) * 100);
    std::printf("\nshape check (native > log-only > log+flush): %s\n",
                run.shape_holds() ? "HOLDS" : "VIOLATED");
    runs.push_back(run);
  }

  if (!json_path.empty() && WriteJson(json_path, workload, runs)) {
    std::printf("json results written to %s\n", json_path.c_str());
  }
  // Gate on the canonical single-heap run; sharded runs are reported
  // but their shape depends on core count.
  const RunSet& canonical = runs.front();
  if (max_log_overhead_pct > 0) {
    const double overhead =
        (1 - canonical.log_only() / canonical.native()) * 100;
    if (overhead > max_log_overhead_pct) {
      std::fprintf(stderr,
                   "FAIL: log-only overhead %.1f%% exceeds the "
                   "--max-log-overhead-pct %.1f%% budget\n",
                   overhead, max_log_overhead_pct);
      return 1;
    }
    std::printf("log-only overhead gate: %.1f%% <= %.1f%% budget\n",
                overhead, max_log_overhead_pct);
  }
  return canonical.shape_holds() ? 0 : 1;
}
