#include "core/tsp_planner.h"

#include <algorithm>

namespace tsp {

const char* RuntimeActionName(RuntimeAction action) {
  switch (action) {
    case RuntimeAction::kNone:
      return "none";
    case RuntimeAction::kSyncCacheFlush:
      return "sync-cache-flush";
    case RuntimeAction::kSyncMsync:
      return "sync-msync";
  }
  return "unknown";
}

const char* FailureTimeActionName(FailureTimeAction action) {
  switch (action) {
    case FailureTimeAction::kNone:
      return "none";
    case FailureTimeAction::kRelyOnKernelPersistence:
      return "rely-on-kernel-persistence";
    case FailureTimeAction::kPanicHandlerCacheFlush:
      return "panic-handler-cache-flush";
    case FailureTimeAction::kPanicHandlerWriteStorage:
      return "panic-handler-write-storage";
    case FailureTimeAction::kStandbyEnergyRescue:
      return "standby-energy-rescue";
  }
  return "unknown";
}

namespace {

// Strength ordering for combining per-failure runtime requirements.
int RuntimeStrength(RuntimeAction a) {
  switch (a) {
    case RuntimeAction::kNone:
      return 0;
    case RuntimeAction::kSyncCacheFlush:
      return 1;
    case RuntimeAction::kSyncMsync:
      return 2;
  }
  return 0;
}

int BackingStrength(Location l) {
  switch (l) {
    case Location::kKernelDram:
      return 0;
    case Location::kNvm:
      return 1;
    case Location::kBlockStorage:
      return 2;
    default:
      return -1;
  }
}

struct PerFailurePlan {
  RuntimeAction runtime = RuntimeAction::kNone;
  FailureTimeAction failure_time = FailureTimeAction::kNone;
  Location backing = Location::kKernelDram;
  std::string why;
};

PerFailurePlan PlanProcessCrash(const HardwareProfile& hw) {
  PerFailurePlan p;
  p.runtime = RuntimeAction::kNone;
  p.failure_time = FailureTimeAction::kRelyOnKernelPersistence;
  p.backing = hw.nonvolatile_memory ? Location::kNvm : Location::kKernelDram;
  p.why =
      "process-crash: MAP_SHARED file-backed mapping gives kernel "
      "persistence; every issued store survives with zero runtime overhead";
  return p;
}

PerFailurePlan PlanKernelPanic(const HardwareProfile& hw) {
  PerFailurePlan p;
  const bool memory_survives =
      hw.nonvolatile_memory || hw.memory_preserved_across_reboot;
  if (hw.panic_handler_flushes_caches && memory_survives) {
    p.runtime = RuntimeAction::kNone;
    p.failure_time = FailureTimeAction::kPanicHandlerCacheFlush;
    p.backing =
        hw.nonvolatile_memory ? Location::kNvm : Location::kKernelDram;
    p.why =
        "kernel-panic: panic handler flushes CPU caches and memory "
        "contents survive the reboot";
  } else if (hw.panic_handler_flushes_caches &&
             hw.panic_handler_writes_storage) {
    p.runtime = RuntimeAction::kNone;
    p.failure_time = FailureTimeAction::kPanicHandlerWriteStorage;
    p.backing = Location::kBlockStorage;
    p.why =
        "kernel-panic: panic handler flushes caches and evacuates the "
        "persistent heap to stable storage before the machine halts";
  } else if (memory_survives) {
    p.runtime = RuntimeAction::kSyncCacheFlush;
    p.failure_time = FailureTimeAction::kNone;
    p.backing =
        hw.nonvolatile_memory ? Location::kNvm : Location::kKernelDram;
    p.why =
        "kernel-panic: memory survives reboot but the dying kernel will "
        "not flush caches, so critical lines must be flushed eagerly";
  } else {
    p.runtime = RuntimeAction::kSyncMsync;
    p.failure_time = FailureTimeAction::kNone;
    p.backing = Location::kBlockStorage;
    p.why =
        "kernel-panic: no panic-handler support and volatile memory, so "
        "commits must be msync'ed to block storage during operation";
  }
  return p;
}

PerFailurePlan PlanPowerOutage(const HardwareProfile& hw) {
  PerFailurePlan p;
  if (hw.standby_energy_rescue) {
    p.runtime = RuntimeAction::kNone;
    p.failure_time = FailureTimeAction::kStandbyEnergyRescue;
    p.backing =
        hw.nonvolatile_memory ? Location::kNvm : Location::kKernelDram;
    p.why =
        "power-outage: standby energy flushes caches (and evacuates DRAM "
        "if volatile) when utility power fails — WSP-style rescue";
  } else if (hw.nonvolatile_memory) {
    p.runtime = RuntimeAction::kSyncCacheFlush;
    p.failure_time = FailureTimeAction::kNone;
    p.backing = Location::kNvm;
    p.why =
        "power-outage: memory is non-volatile but caches are not, and no "
        "residual energy rescues them, so lines must be flushed eagerly";
  } else {
    p.runtime = RuntimeAction::kSyncMsync;
    p.failure_time = FailureTimeAction::kNone;
    p.backing = Location::kBlockStorage;
    p.why =
        "power-outage: volatile memory and no standby energy, so commits "
        "must be synchronously written to block storage";
  }
  return p;
}

}  // namespace

PersistencePlan PlanPersistence(const Requirements& req,
                                const HardwareProfile& hw) {
  PersistencePlan plan;
  plan.feasible = true;
  plan.backing = hw.nonvolatile_memory ? Location::kNvm : Location::kKernelDram;

  std::vector<PerFailurePlan> parts;
  if (req.tolerated.Contains(FailureClass::kProcessCrash)) {
    parts.push_back(PlanProcessCrash(hw));
  }
  if (req.tolerated.Contains(FailureClass::kKernelPanic)) {
    parts.push_back(PlanKernelPanic(hw));
  }
  if (req.tolerated.Contains(FailureClass::kPowerOutage)) {
    parts.push_back(PlanPowerOutage(hw));
  }

  for (const PerFailurePlan& part : parts) {
    if (RuntimeStrength(part.runtime) > RuntimeStrength(plan.runtime_action)) {
      plan.runtime_action = part.runtime;
    }
    if (part.failure_time != FailureTimeAction::kNone &&
        std::find(plan.failure_time_actions.begin(),
                  plan.failure_time_actions.end(),
                  part.failure_time) == plan.failure_time_actions.end()) {
      plan.failure_time_actions.push_back(part.failure_time);
    }
    if (BackingStrength(part.backing) > BackingStrength(plan.backing)) {
      plan.backing = part.backing;
    }
    plan.rationale.push_back(part.why);
  }

  plan.is_tsp = plan.runtime_action == RuntimeAction::kNone;

  if (!req.needs_rollback) {
    plan.atlas_mode = PersistenceMode::kNone;
    plan.rationale.push_back(
        "non-blocking algorithms keep the heap consistent at every "
        "instant, so no logging or rollback is needed (§4.1)");
  } else if (req.tolerated.empty()) {
    plan.atlas_mode = PersistenceMode::kNone;
    plan.rationale.push_back(
        "no failure is tolerated, so no interrupted critical section is "
        "ever rolled back and undo logging buys nothing");
  } else if (plan.is_tsp) {
    plan.atlas_mode = PersistenceMode::kLogOnly;
    plan.rationale.push_back(
        "mutex-based code needs undo logging for rollback, but TSP makes "
        "synchronous log flushing unnecessary (§4.2)");
  } else {
    plan.atlas_mode = PersistenceMode::kLogAndFlush;
    plan.rationale.push_back(
        "mutex-based code needs undo logging, and without TSP each log "
        "entry must be synchronously flushed before its store (§4.2)");
  }

  return plan;
}

const char* PersistenceModeName(PersistenceMode mode) {
  switch (mode) {
    case PersistenceMode::kNone:
      return "none";
    case PersistenceMode::kLogOnly:
      return "log-only";
    case PersistenceMode::kLogAndFlush:
      return "log+flush";
  }
  return "unknown";
}

std::string PersistencePlan::ToString() const {
  std::string out;
  out += "feasible: ";
  out += feasible ? "yes" : "no";
  out += "\nTSP (zero runtime overhead): ";
  out += is_tsp ? "yes" : "no";
  out += "\nruntime action: ";
  out += RuntimeActionName(runtime_action);
  out += "\nfailure-time actions:";
  if (failure_time_actions.empty()) out += " none";
  for (FailureTimeAction a : failure_time_actions) {
    out += " ";
    out += FailureTimeActionName(a);
  }
  out += "\nbacking: ";
  out += LocationName(backing);
  out += "\natlas mode: ";
  out += PersistenceModeName(atlas_mode);
  for (const std::string& r : rationale) {
    out += "\n  - " + r;
  }
  return out;
}

}  // namespace tsp
