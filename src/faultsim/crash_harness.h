// Copyright 2026 The TSP Authors.
// Real-crash fault injection (paper §5.1):
//
// "Our fault-injection methodology mimics the effects of a sudden
// process crash caused by an application software error ... We abruptly
// and simultaneously terminate all threads in a running process by
// sending the process a SIGKILL signal, which cannot be caught or
// ignored. Recovery code then attempts to locate the map in the
// persistent heap by starting from the heap's root pointer, traverse
// the contents of the map, and verify the integrity of the map by
// testing the invariants of Equations 1 and 2."
//
// Each cycle forks a worker process that opens the persistent heap
// (recovering if needed) and runs the §5.1 workload until it is
// SIGKILLed at a random time; the parent then opens the heap, runs
// recovery, and checks the invariants.

#ifndef TSP_FAULTSIM_CRASH_HARNESS_H_
#define TSP_FAULTSIM_CRASH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp::faultsim {

struct CrashCycleOptions {
  workload::MapSession::Config session;
  workload::WorkloadOptions workload;
  /// Number of kill/recover cycles.
  int cycles = 10;
  /// The worker runs for a uniform-random time in this window before
  /// the SIGKILL lands.
  int min_run_ms = 20;
  int max_run_ms = 120;
  std::uint64_t seed = 42;
  /// Start each cycle from a fresh heap (the paper's methodology:
  /// every injected crash is an independent experiment whose recovered
  /// state is checked against Eq. (1)/(2); those invariants are
  /// statements about a single run from an empty map — the crash-
  /// interrupted iteration is inherently ambiguous to a resumed run).
  bool reset_between_cycles = true;
  /// Arm TSPSan in the forked worker: the arena is kept PROT_READ and
  /// every store outside the logged-store machinery aborts the worker
  /// (which the harness then reports as a premature exit instead of the
  /// expected SIGKILL). Also armed when TSP_SANITIZE_PERSIST is set in
  /// the environment. TSPSan guards one region per process, so with
  /// session.shards > 1 only shard 0 is armed; the other shards run
  /// unchecked (their stores still hit the same logged-store paths).
  bool enable_tspsan = false;
  /// Arm TSPRace (the persistence-race/lock-order detector) in the
  /// forked worker: a lockset violation exits with a distinct code the
  /// harness reports instead of the expected SIGKILL. Also armed when
  /// TSP_RACE is set in the environment. Compiled out under
  /// -DTSP_ANALYSIS=OFF (the worker then runs unchecked).
  bool enable_race_detector = false;
  /// Print one line per cycle.
  bool verbose = false;
  /// Replaces the §5.1 workload the forked worker runs until the kill
  /// (null: RunMapWorkload with `workload`). Runs after the session is
  /// open and the sanitizers are armed.
  std::function<void(maps::Map*)> worker;
  /// Replaces the Eq. (1)/(2) check of each recovered session (null:
  /// CheckMapInvariants over `workload.threads`). Returns an empty
  /// string when the recovered state is consistent, else what is wrong.
  std::function<std::string(workload::MapSession*)> verify;
};

struct CrashCycleReport {
  int cycles_run = 0;
  int recoveries_with_rollback = 0;
  std::uint64_t total_stores_undone = 0;
  std::uint64_t total_ocses_rolled_back = 0;
  std::uint64_t total_gc_reclaimed_bytes = 0;
  /// Sum over cycles of completed iterations observed at recovery (Σ c2).
  std::uint64_t final_completed_iterations = 0;
  bool all_ok = false;
  std::vector<std::string> errors;

  std::string ToString() const;
};

/// Runs the kill/recover loop. The caller's process must be able to
/// fork (do not call with other threads running in exotic states).
/// Never throws; failures are reported in the returned report.
CrashCycleReport RunCrashCycles(const CrashCycleOptions& options);

/// Multi-process crash drill (DESIGN.md §12): N forked workers *attach*
/// to one shared domain (created fresh by the harness) and churn the
/// map concurrently while a killer SIGKILLs random workers; each corpse
/// is replaced by a fresh attacher that joins while the survivors keep
/// serving — exercising robust-lock steals, per-slot dead-owner
/// harvesting, and attach-time recovery under live traffic. At the end
/// every survivor is killed too and a final fresh attacher verifies the
/// whole history: Eq. (1)/(2) over every worker index ever used,
/// CheckHeap clean on every shard, zero wedged robust locks.
struct MultiProcessCrashOptions {
  /// Domain shape. `attach` is ignored (the harness sets it per role);
  /// the variant must carry an Atlas runtime (robust locking is the
  /// cross-process substrate), i.e. not kMutexNative.
  workload::MapSession::Config session;
  /// Per-worker workload. `threads` is threads *per worker process*;
  /// `first_thread_index` is assigned by the harness (each worker —
  /// including every replacement — gets a fresh disjoint index block so
  /// counter keys are never rewound; see WorkloadOptions).
  workload::WorkloadOptions workload;
  /// Concurrently attached worker processes (kept at this level: every
  /// kill spawns a replacement).
  int workers = 4;
  /// SIGKILLs delivered to random workers before the final drain.
  int kills = 20;
  /// Uniform-random delay between kills.
  int min_run_ms = 10;
  int max_run_ms = 60;
  std::uint64_t seed = 42;
  bool verbose = false;
};

struct MultiProcessCrashReport {
  int workers_spawned = 0;
  int kills_delivered = 0;
  /// Persistent robust-table counters after the final harvest, summed
  /// over shards (cumulative for the domain's whole life).
  std::uint64_t robust_steals = 0;
  std::uint64_t dead_owner_rollbacks = 0;
  std::uint64_t slots_harvested = 0;
  /// Wedged robust locks found by the final CheckHeap (must be 0).
  std::uint64_t wedged_locks = 0;
  /// Σ c2 over the final verified map.
  std::uint64_t final_completed_iterations = 0;
  bool all_ok = false;
  std::vector<std::string> errors;

  std::string ToString() const;
};

/// Runs the drill. Same fork caveats as RunCrashCycles.
MultiProcessCrashReport RunMultiProcessCrashCycles(
    const MultiProcessCrashOptions& options);

}  // namespace tsp::faultsim

#endif  // TSP_FAULTSIM_CRASH_HARNESS_H_
