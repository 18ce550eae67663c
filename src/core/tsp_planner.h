// Copyright 2026 The TSP Authors.
// The TSP design-selection exercise of paper §3 as an executable
// decision procedure: given fault-tolerance requirements and a hardware
// profile, determine the minimal runtime and failure-time measures that
// satisfy the requirements — "moving a minimal amount of data to a
// location that is adequately safe (typically no safer) and doing so in
// a timely manner (typically just in time)".

#ifndef TSP_CORE_TSP_PLANNER_H_
#define TSP_CORE_TSP_PLANNER_H_

#include <string>
#include <vector>

#include "core/failure_model.h"
#include "core/persistence_policy.h"

namespace tsp {

/// What must be done during failure-free operation.
enum class RuntimeAction : std::uint8_t {
  /// Nothing: plain stores to the persistent heap suffice.
  kNone = 0,
  /// Synchronously flush CPU cache lines on the persistence-critical
  /// path (undo-log entries before their guarded stores).
  kSyncCacheFlush,
  /// Synchronously msync() modified heap pages to block storage at
  /// commit points (conventional hardware, no panic/energy support).
  kSyncMsync,
};

/// What must be guaranteed to happen when a tolerated failure strikes.
enum class FailureTimeAction : std::uint8_t {
  kNone = 0,
  /// Nothing to do for process crashes: POSIX MAP_SHARED semantics keep
  /// every issued store visible in the page cache (Appendix A).
  kRelyOnKernelPersistence,
  /// The kernel's panic handler flushes CPU caches to memory.
  kPanicHandlerCacheFlush,
  /// The kernel's panic handler additionally writes persistent-heap
  /// pages to stable storage before halting.
  kPanicHandlerWriteStorage,
  /// Residual/standby energy flushes caches (and evacuates DRAM to
  /// flash if memory is volatile) on power loss — WSP-style.
  kStandbyEnergyRescue,
};

const char* RuntimeActionName(RuntimeAction action);
const char* FailureTimeActionName(FailureTimeAction action);

/// Fault-tolerance requirements for a persistent heap.
struct Requirements {
  /// Which failures must be tolerated.
  FailureSet tolerated;
  /// True if the application can corrupt data *inside* interrupted
  /// critical sections (mutex-based code): recovery then needs undo
  /// logging / rollback (§4.2). Non-blocking designs (§4.1) leave the
  /// heap consistent at every instant and need no logging.
  bool needs_rollback = false;
};

/// The plan: minimal runtime overhead plus required failure-time
/// guarantees. `feasible` is false if the hardware cannot satisfy the
/// requirements at all (e.g., power outages with no NVM and no standby
/// energy and no storage path).
struct PersistencePlan {
  bool feasible = false;
  /// True when no runtime flushing is required — the defining TSP win.
  bool is_tsp = false;
  RuntimeAction runtime_action = RuntimeAction::kNone;
  std::vector<FailureTimeAction> failure_time_actions;
  /// Where the heap must be backed for the plan to work.
  Location backing;
  /// The Atlas persistence mode implied by the plan (log-only when
  /// rollback is needed and TSP is available; log+flush when rollback is
  /// needed but flushes cannot be postponed; none otherwise, including
  /// a plan that tolerates no failure at all).
  PersistenceMode atlas_mode = PersistenceMode::kNone;
  /// Human-readable rationale, one line per decision.
  std::vector<std::string> rationale;

  std::string ToString() const;
};

/// Computes the minimal plan for `req` on `hw`. Deterministic and
/// side-effect free; heavily unit-tested against the statements in §3
/// and §4 of the paper.
PersistencePlan PlanPersistence(const Requirements& req,
                                const HardwareProfile& hw);

}  // namespace tsp

#endif  // TSP_CORE_TSP_PLANNER_H_
