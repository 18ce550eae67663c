// The tentpole end-to-end property: the flight recorder survives
// SIGKILL like the undo log does. A worker process is killed mid-OCS;
// the parent decodes the rings from a read-only mapping BEFORE running
// recovery (reopening recycles rings as the new session's threads claim
// slots) and cross-references the recorder's open OCS spans against the
// OCSes recovery actually rolls back.
//
// The kill can land in the few-instruction window between an undo-log
// append and the matching trace emit (each side publishes with its own
// release-store), so a cycle where the two disagree is not evidence of
// a bug — such a cycle is skipped and the loop retries, over a bounded
// number of rollback cycles, until it observes exact agreement.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_layout.h"
#include "obs/trace_reader.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp::obs {
namespace {

using pheap::testing::ScopedRegionFile;
using workload::MapSession;
using workload::MapVariant;

/// Runs the map workload in a child until SIGKILLed.
void RunChildWorker(const MapSession::Config& config) {
  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok()) _exit(4);
  const std::atomic<bool> stop{false};  // never set: run until killed
  workload::WorkloadOptions workload;
  workload.threads = 4;
  workload.high_range = 256;  // high contention: long lock waits mid-OCS
  workload.seed = 0x0B5;
  RunMapWorkload((*session)->map(), workload, &stop);
  _exit(3);  // unreachable unless the workload returns
}

TEST(TraceCrashTest, OpenSpansMatchRecoveredRollbacks) {
#ifdef TSP_OBS_DISABLED
  GTEST_SKIP() << "flight recorder compiled out (TSP_OBS=OFF)";
#else
  ScopedRegionFile file("trace_crash");
  MapSession::Config config;
  config.variant = MapVariant::kMutexLogOnly;
  config.path = file.path();
  config.heap_size = 256 * 1024 * 1024;
  config.runtime_area_size = 16 * 1024 * 1024;

  // Two budgets. OCSes are short next to the time between them (about
  // one kill in ten lands inside one), so kills that roll nothing back
  // are cheap retries with a generous cap. Agreement is judged over at
  // most kMaxRollbackCycles cycles that did roll back: that cap alone
  // sets how many disagreeing cycles the test forgives.
  constexpr int kMaxKills = 100;
  constexpr int kMaxRollbackCycles = 2;
  bool exercised = false;
  int rollback_cycles = 0;

  for (int cycle = 0; cycle < kMaxKills && !exercised &&
                      rollback_cycles < kMaxRollbackCycles;
       ++cycle) {
    // Fresh heap every cycle: rings are recycled lazily (only when a
    // new thread claims the slot), so a stale ring from a previous
    // cycle's extra thread would contribute phantom open spans.
    unlink(config.path.c_str());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      RunChildWorker(config);  // never returns
    }
    // Let the workers get going, then kill mid-flight. Vary the window
    // across cycles so the kill samples different OCS phases.
    usleep((10 + (cycle * 7) % 50) * 1000);
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    if (WIFEXITED(status)) {
      // Child died before the kill (setup failure) — not a crash cycle.
      ASSERT_EQ(WEXITSTATUS(status), 4) << "worker exited unexpectedly";
      continue;
    }
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Post-mortem read, strictly before recovery touches the heap.
    std::vector<TraceEvent> merged;
    std::vector<std::uint64_t> span_ocses;
    {
      auto heap = pheap::PersistentHeap::OpenReadOnly(config.path);
      if (!heap.ok()) continue;  // killed before the region was formatted
      ASSERT_TRUE((*heap)->needs_recovery())
          << "SIGKILLed heap should be unclean";
      const TraceReader reader((*heap)->runtime_area(),
                               (*heap)->runtime_area_size());
      if (!reader.valid()) continue;  // killed before the trace format
      merged = reader.MergedEvents();
      for (const OpenOcsSpan& span : reader.OpenOcsSpans()) {
        span_ocses.push_back(span.packed_ocs);
      }
    }

    // Now recover, and compare notes with the recorder.
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->recovered());
    const atlas::RecoveryStats stats = (*session)->recovery_stats();
    std::vector<std::uint64_t> rolled = stats.rolled_back_incomplete;
    (*session)->CloseClean();
    session->reset();

    if (stats.ocses_incomplete == 0) continue;  // kill missed every OCS
    ++rollback_cycles;
    ASSERT_LE(stats.ocses_incomplete,
              atlas::RecoveryStats::kMaxReportedRollbacks)
        << "identity list capped; comparison would be partial";

    std::sort(span_ocses.begin(), span_ocses.end());
    std::sort(rolled.begin(), rolled.end());
    if (span_ocses != rolled) continue;  // kill split a log/trace pair

    // An agreeing cycle: the recorder's post-crash story matches what
    // recovery actually did.
    exercised = true;
    EXPECT_FALSE(merged.empty())
        << "workers ran long enough to roll back an OCS but left no "
           "events";
    EXPECT_TRUE(std::is_sorted(
        merged.begin(), merged.end(),
        [](const TraceEvent& a, const TraceEvent& b) {
          return a.stamp < b.stamp;
        }))
        << "MergedEvents must be stamp-ordered";
    // Every open span must have a begin event in the surviving stream.
    for (const std::uint64_t packed : span_ocses) {
      const bool has_begin = std::any_of(
          merged.begin(), merged.end(), [packed](const TraceEvent& e) {
            return e.code == static_cast<std::uint16_t>(EventCode::kOcsBegin) &&
                   e.arg0 == packed;
          });
      EXPECT_TRUE(has_begin) << "open span without a begin event";
    }
  }

  EXPECT_GT(rollback_cycles, 0)
      << "no cycle interrupted an OCS in " << kMaxKills
      << " kills; the test never exercised the cross-reference";
  EXPECT_TRUE(exercised)
      << "recorder and recovery never agreed across " << rollback_cycles
      << " rollback cycles — more than the rare publication race "
         "explains";
#endif  // TSP_OBS_DISABLED
}

}  // namespace
}  // namespace tsp::obs
