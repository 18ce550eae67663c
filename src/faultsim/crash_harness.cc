#include "faultsim/crash_harness.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <thread>

#include "analysis/race_detector.h"
#include "atlas/log_layout.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace_layout.h"
#include "obs/trace_reader.h"
#include "pheap/check.h"
#include "pheap/heap.h"
#include "pheap/sanitizer.h"

namespace tsp::faultsim {
namespace {

/// Decodes the tail of the crashed session's flight recorder for one
/// shard file. Must run against a read-only mapping BEFORE the session is
/// reopened: reopening runs recovery and restarts the workload, whose
/// threads reclaim trace rings. Empty string when the heap has no
/// readable recorder (legacy layout, tracing off, tiny runtime area).
std::string TraceTailSummary(const std::string& path,
                             std::size_t max_events) {
  auto heap = pheap::PersistentHeap::OpenReadOnly(path);
  if (!heap.ok()) return "";
  const obs::TraceReader reader((*heap)->runtime_area(),
                                (*heap)->runtime_area_size());
  if (!reader.valid()) return "";
  const std::vector<obs::TraceEvent> merged = reader.MergedEvents();
  if (merged.empty()) return "";
  std::string out = "recorder tail of " + path + " (" +
                    std::to_string(merged.size()) + " events";
  for (const obs::OpenOcsSpan& span : reader.OpenOcsSpans()) {
    out += "; open OCS thread=" +
           std::to_string(atlas::UnpackThread(span.packed_ocs)) +
           " ocs=" + std::to_string(atlas::UnpackOcs(span.packed_ocs)) +
           " lock=" + std::to_string(span.lock_id);
  }
  out += "):";
  const std::size_t first =
      merged.size() > max_events ? merged.size() - max_events : 0;
  for (std::size_t i = first; i < merged.size(); ++i) {
    const obs::TraceEvent& e = merged[i];
    out += "\n      [ring " + std::to_string(e.thread_id) + "] " +
           obs::EventCodeName(static_cast<obs::EventCode>(e.code)) +
           " arg0=" + std::to_string(e.arg0) +
           " arg1=" + std::to_string(e.arg1) +
           " aux=" + std::to_string(e.aux);
  }
  return out;
}

// Entry point of the forked worker: open the heap (recovering if the
// previous cycle crashed it), then hammer the map until killed. Writes
// one byte to `ready_fd` once the heap is open (and therefore dirty) so
// the parent's kill timer never starts before there is anything to
// kill — under heavy machine load the child can take longer to reach
// OpenOrCreate than the whole randomized run window.
[[noreturn]] void WorkerMain(const CrashCycleOptions& options,
                             int ready_fd) {
  auto session = workload::MapSession::OpenOrCreate(options.session);
  if (!session.ok()) {
    TSP_LOG(ERROR) << "worker failed to open session: "
                   << session.status().ToString();
    _exit(2);
  }
  if (options.enable_tspsan || pheap::TspSanitizer::enabled_by_env()) {
    // Registry must outlive the sanitizer; the worker never disables it
    // (it dies by SIGKILL), so give it static storage.
    static pheap::TypeRegistry registry;
    workload::MapSession::RegisterAllTypes(&registry);
    pheap::TspSanitizer::Options san;
    san.registry = &registry;
    san.violation_exit_code = 4;  // distinguishes a TSPSan trap below
    Status status = pheap::TspSanitizer::Enable(
        (*session)->heap()->region(), san);
    if (!status.ok()) {
      TSP_LOG(ERROR) << "worker failed to enable TSPSan: "
                     << status.ToString();
      _exit(2);
    }
  }
  if ((options.enable_race_detector ||
       analysis::RaceDetector::enabled_by_env()) &&
      analysis::RaceDetector::compiled_in() &&
      !analysis::RaceDetector::active()) {
    analysis::RaceDetector::Options race;
    race.violation_exit_code = 5;  // distinguishes a TSPRace trap below
    Status status =
        analysis::RaceDetector::Enable((*session)->RaceArenas(), race);
    if (!status.ok()) {
      TSP_LOG(ERROR) << "worker failed to enable TSPRace: "
                     << status.ToString();
      _exit(2);
    }
  }
  const char ready = 1;
  if (write(ready_fd, &ready, 1) != 1) {
    TSP_LOG(ERROR) << "worker failed to signal readiness";
    _exit(2);
  }
  close(ready_fd);
  if (options.worker) {
    options.worker((*session)->map());
  } else {
    std::atomic<bool> stop{false};  // never set: we run until SIGKILL
    workload::RunMapWorkload((*session)->map(), options.workload, &stop);
  }
  _exit(3);  // unreachable unless the workload somehow finishes
}

}  // namespace

std::string CrashCycleReport::ToString() const {
  std::string out = "crash cycles: " + std::to_string(cycles_run);
  out += all_ok ? " ALL RECOVERIES CONSISTENT" : " FAILURES DETECTED";
  out += "\n  recoveries with rollback: " +
         std::to_string(recoveries_with_rollback);
  out += "\n  OCSes rolled back:        " +
         std::to_string(total_ocses_rolled_back);
  out += "\n  undo records applied:     " +
         std::to_string(total_stores_undone);
  out += "\n  GC bytes reclaimed:       " +
         std::to_string(total_gc_reclaimed_bytes);
  out += "\n  completed iterations:     " +
         std::to_string(final_completed_iterations);
  for (const std::string& error : errors) {
    out += "\n  ERROR: " + error;
  }
  return out;
}

CrashCycleReport RunCrashCycles(const CrashCycleOptions& options) {
  CrashCycleReport report;
  Random rng(options.seed);

  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    int ready_pipe[2];
    if (pipe(ready_pipe) != 0) {
      report.errors.push_back("pipe failed");
      break;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(ready_pipe[0]);
      close(ready_pipe[1]);
      report.errors.push_back("fork failed");
      break;
    }
    if (pid == 0) {
      close(ready_pipe[0]);
      WorkerMain(options, ready_pipe[1]);  // never returns
    }
    close(ready_pipe[1]);

    // The kill timer starts only once the worker reports the heap open
    // (the read returns 0 instead if the worker died during setup; the
    // WIFEXITED branch below turns that into a report error).
    char ready = 0;
    while (read(ready_pipe[0], &ready, 1) < 0 && errno == EINTR) {
    }
    close(ready_pipe[0]);

    const int window = options.max_run_ms - options.min_run_ms + 1;
    const int run_ms =
        options.min_run_ms + static_cast<int>(rng.Uniform(window));
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));

    // The uncatchable kill: every thread of the worker halts at once.
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    ++report.cycles_run;
    TSP_COUNTER_INC("faultsim.cycles");

    // Snapshot the flight recorder of every shard now, before the
    // reopen below recovers the heap and its threads recycle the rings.
    std::string trace_tail;
    for (const std::string& path :
         workload::MapSession::ShardPaths(options.session)) {
      const std::string shard_tail = TraceTailSummary(path, 16);
      if (shard_tail.empty()) continue;
      if (!trace_tail.empty()) trace_tail += "\n    ";
      trace_tail += shard_tail;
    }
    auto with_trace = [&trace_tail](std::string error) {
      if (!trace_tail.empty()) error += "\n    " + trace_tail;
      return error;
    };
    if (WIFEXITED(status)) {
      // The worker exited before the kill (e.g., setup failure, or a
      // sanitizer trap: 4 = TSPSan unlogged store, 5 = TSPRace
      // persistence-race violation).
      const int code = WEXITSTATUS(status);
      std::string reason = "worker exited with status " +
                           std::to_string(code) +
                           " instead of being killed";
      if (code == 4) reason += " (TSPSan violation)";
      if (code == 5) reason += " (TSPRace violation)";
      report.errors.push_back("cycle " + std::to_string(cycle) + ": " +
                              reason);
      continue;
    }

    // Recover in-process and verify.
    auto session = workload::MapSession::OpenOrCreate(options.session);
    if (!session.ok()) {
      report.errors.push_back(with_trace(
          "cycle " + std::to_string(cycle) +
          ": recovery open failed: " + session.status().ToString()));
      continue;
    }
    if (!(*session)->recovered()) {
      report.errors.push_back(with_trace(
          "cycle " + std::to_string(cycle) +
          ": heap unexpectedly clean after SIGKILL"));
    }
    const atlas::RecoveryStats& rec = (*session)->recovery_stats();
    if (rec.ocses_incomplete + rec.ocses_cascaded > 0) {
      ++report.recoveries_with_rollback;
    }
    report.total_stores_undone += rec.stores_undone;
    report.total_ocses_rolled_back +=
        rec.ocses_incomplete + rec.ocses_cascaded;
    report.total_gc_reclaimed_bytes +=
        (*session)->gc_stats().free_bytes +
        (*session)->gc_stats().tail_reclaimed_bytes;

    std::string verdict;
    if (options.verify) {
      const std::string problem = options.verify(session->get());
      verdict = problem.empty() ? "verified" : problem;
      if (!problem.empty()) {
        report.errors.push_back(with_trace("cycle " + std::to_string(cycle) +
                                           ": " + problem));
      }
    } else {
      const workload::InvariantReport invariants =
          workload::CheckMapInvariants(*(*session)->map(),
                                       options.workload.threads);
      verdict = invariants.ToString();
      if (!invariants.ok) {
        report.errors.push_back(with_trace("cycle " + std::to_string(cycle) +
                                           ": " + verdict));
      } else {
        report.final_completed_iterations += invariants.completed_iterations;
      }
    }
    if (options.verbose) {
      TSP_LOG(WARNING) << "cycle " << cycle << " [" << run_ms << "ms] "
                       << workload::MapVariantName(options.session.variant) << ": "
                       << verdict << "; " << rec.ToString();
    }
    (*session)->CloseClean();
    session->reset();
    if (options.reset_between_cycles) {
      for (const std::string& path :
           workload::MapSession::ShardPaths(options.session)) {
        unlink(path.c_str());
      }
    }
  }

  report.all_ok = report.errors.empty() && report.cycles_run == options.cycles;
  return report;
}

namespace {

/// Entry point of a forked *attached* worker: join the already-created
/// domain cooperatively and hammer the map until SIGKILLed. The index
/// block keeps its counter keys disjoint from every other worker that
/// ever lived (see WorkloadOptions::first_thread_index).
[[noreturn]] void AttachedWorkerMain(const MultiProcessCrashOptions& options,
                                     int first_thread_index) {
  workload::MapSession::Config config = options.session;
  config.attach = true;
  auto session = workload::MapSession::OpenOrCreate(config);
  if (!session.ok()) {
    TSP_LOG(ERROR) << "worker failed to attach: "
                   << session.status().ToString();
    _exit(2);
  }
  workload::WorkloadOptions wl = options.workload;
  wl.first_thread_index = first_thread_index;
  wl.seed = options.seed + 0x9e3779b9ull * (first_thread_index + 1);
  std::atomic<bool> stop{false};  // never set: we run until SIGKILL
  workload::RunMapWorkload((*session)->map(), wl, &stop);
  _exit(3);  // unreachable unless the workload somehow finishes
}

}  // namespace

std::string MultiProcessCrashReport::ToString() const {
  std::string out = "multi-process crash drill: " +
                    std::to_string(kills_delivered) + " kills over " +
                    std::to_string(workers_spawned) + " workers";
  out += all_ok ? " ALL CONSISTENT" : " FAILURES DETECTED";
  out += "\n  robust-lock steals:       " + std::to_string(robust_steals);
  out += "\n  dead-owner rollbacks:     " +
         std::to_string(dead_owner_rollbacks);
  out += "\n  slots harvested:          " + std::to_string(slots_harvested);
  out += "\n  wedged locks (final):     " + std::to_string(wedged_locks);
  out += "\n  completed iterations:     " +
         std::to_string(final_completed_iterations);
  for (const std::string& error : errors) {
    out += "\n  ERROR: " + error;
  }
  return out;
}

MultiProcessCrashReport RunMultiProcessCrashCycles(
    const MultiProcessCrashOptions& options) {
  MultiProcessCrashReport report;
  Random rng(options.seed);

  // Create the domain exclusively, then leave: workers only ever attach.
  for (const std::string& path :
       workload::MapSession::ShardPaths(options.session)) {
    unlink(path.c_str());
  }
  {
    auto owner = workload::MapSession::OpenOrCreate(options.session);
    if (!owner.ok()) {
      report.errors.push_back("domain create failed: " +
                              owner.status().ToString());
      return report;
    }
    // Without a robust table every PMutex degrades to in-process
    // arbitration and the whole drill silently tests nothing.
    if ((*owner)->runtime() == nullptr ||
        (*owner)->runtime()->robust_lock_count() == 0) {
      report.errors.push_back(
          "domain has no robust lock table (variant without an Atlas "
          "runtime, or a runtime area too small for the carve-out)");
      return report;
    }
    (*owner)->CloseClean();
  }

  struct Worker {
    pid_t pid;
    int first_index;
  };
  std::vector<Worker> live;
  int next_index = 0;
  auto spawn = [&]() -> bool {
    const int index = next_index;
    next_index += options.workload.threads;
    const pid_t pid = fork();
    if (pid < 0) {
      report.errors.push_back("fork failed");
      return false;
    }
    if (pid == 0) {
      AttachedWorkerMain(options, index);  // never returns
    }
    live.push_back(Worker{pid, index});
    ++report.workers_spawned;
    return true;
  };
  auto reap = [&](const Worker& worker, bool expected_kill) {
    int status = 0;
    waitpid(worker.pid, &status, 0);
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      std::string reason = "worker (first index " +
                           std::to_string(worker.first_index) +
                           ") exited with status " + std::to_string(code) +
                           " instead of being killed";
      if (code == 4) reason += " (TSPSan violation)";
      if (code == 5) reason += " (TSPRace violation)";
      report.errors.push_back(reason);
    } else if (expected_kill) {
      ++report.kills_delivered;
    }
  };

  for (int w = 0; w < options.workers; ++w) {
    if (!spawn()) break;
  }

  const int window = options.max_run_ms - options.min_run_ms + 1;
  for (int k = 0; k < options.kills && !live.empty(); ++k) {
    const int run_ms =
        options.min_run_ms + static_cast<int>(rng.Uniform(window));
    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    const std::size_t victim =
        static_cast<std::size_t>(rng.Uniform(live.size()));
    const Worker worker = live[victim];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    // The uncatchable kill; survivors keep serving and must steal any
    // robust lock the corpse held (after harvesting its slots).
    kill(worker.pid, SIGKILL);
    reap(worker, /*expected_kill=*/true);
    TSP_COUNTER_INC("faultsim.mproc_kills");
    if (options.verbose) {
      TSP_LOG(WARNING) << "mproc kill " << k << " [" << run_ms << "ms] pid "
                       << worker.pid << " (first index "
                       << worker.first_index << ")";
    }
    // Replacement attaches while the survivors are mid-traffic: this is
    // the live-join path (per-slot harvest, no wholesale recovery).
    spawn();
  }

  // Drain: every survivor dies too; the verification attach below
  // harvests them all. (There is no graceful-stop channel by design —
  // a drill worker's only exit is SIGKILL.)
  for (const Worker& worker : live) {
    kill(worker.pid, SIGKILL);
    reap(worker, /*expected_kill=*/false);
  }
  live.clear();

  // Fresh attacher: harvest the corpses, then verify the quiesced map.
  workload::MapSession::Config verify_config = options.session;
  verify_config.attach = true;
  auto session = workload::MapSession::OpenOrCreate(verify_config);
  if (!session.ok()) {
    report.errors.push_back("verification attach failed: " +
                            session.status().ToString());
    return report;
  }
  for (int shard = 0; shard < (*session)->shard_count(); ++shard) {
    atlas::AtlasRuntime* runtime = (*session)->runtime(shard);
    if (runtime == nullptr) continue;
    if (const atlas::RobustTableHeader* table = runtime->robust_table()) {
      report.robust_steals +=
          table->robust_steals.load(std::memory_order_relaxed);
      report.dead_owner_rollbacks +=
          table->dead_owner_rollbacks.load(std::memory_order_relaxed);
      report.slots_harvested +=
          table->slots_harvested.load(std::memory_order_relaxed);
    }
  }

  const workload::InvariantReport invariants =
      workload::CheckMapInvariants(*(*session)->map(), next_index);
  if (!invariants.ok) {
    report.errors.push_back("final invariants: " + invariants.ToString());
  } else {
    report.final_completed_iterations = invariants.completed_iterations;
  }

  pheap::TypeRegistry registry;
  workload::MapSession::RegisterAllTypes(&registry);
  for (int shard = 0; shard < (*session)->shard_count(); ++shard) {
    const pheap::CheckReport check =
        pheap::CheckHeap(*(*session)->heap(shard), registry);
    report.wedged_locks += check.wedged_locks;
    if (!check.ok) {
      report.errors.push_back("final CheckHeap shard " +
                              std::to_string(shard) + ": " +
                              check.ToString());
    }
  }
  if (options.verbose) {
    TSP_LOG(WARNING) << "mproc drill final: " << invariants.ToString();
  }
  (*session)->CloseDetach();

  report.all_ok =
      report.errors.empty() && report.kills_delivered >= options.kills;
  return report;
}

}  // namespace tsp::faultsim
