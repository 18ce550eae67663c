#include "core/tsp_planner.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tsp {
namespace {

bool HasAction(const PersistencePlan& plan, FailureTimeAction action) {
  return std::find(plan.failure_time_actions.begin(),
                   plan.failure_time_actions.end(),
                   action) != plan.failure_time_actions.end();
}

// §3: "if the process places critical data in memory corresponding to a
// memory-mapped file from a DRAM-backed file system, following a crash
// the file will contain all data stored by the process up to the
// instant of the crash, and we obtain this guarantee with no overhead
// during failure-free operation."
TEST(TspPlannerTest, ProcessCrashOnlyIsFreeTsp) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kProcessCrash);
  req.needs_rollback = false;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_EQ(plan.runtime_action, RuntimeAction::kNone);
  EXPECT_TRUE(HasAction(plan, FailureTimeAction::kRelyOnKernelPersistence));
  EXPECT_EQ(plan.backing, Location::kKernelDram);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kNone);
}

// §4.2: mutex-based code needs undo logging; with TSP, log-only.
TEST(TspPlannerTest, MutexCodeWithTspUsesLogOnly) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kProcessCrash);
  req.needs_rollback = true;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kLogOnly);
}

// §3: "If we are required to tolerate kernel panics ... we must arrange
// for the dying OS to flush volatile CPU caches to memory. This suffices
// ... if memory is non-volatile."
TEST(TspPlannerTest, KernelPanicWithPanicFlushAndNvmIsTsp) {
  Requirements req;
  req.tolerated =
      FailureClass::kProcessCrash | FailureClass::kKernelPanic;
  req.needs_rollback = true;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::NvdimmServer());
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_TRUE(HasAction(plan, FailureTimeAction::kPanicHandlerCacheFlush));
  EXPECT_EQ(plan.backing, Location::kNvm);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kLogOnly);
}

// Kernel panic without any panic-handler support on conventional
// hardware forces synchronous msync — no TSP.
TEST(TspPlannerTest, KernelPanicWithoutSupportForcesMsync) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kKernelPanic);
  req.needs_rollback = true;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  EXPECT_FALSE(plan.is_tsp);
  EXPECT_EQ(plan.runtime_action, RuntimeAction::kSyncMsync);
  EXPECT_EQ(plan.backing, Location::kBlockStorage);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kLogAndFlush);
}

// Memory preserved across warm reboot (Rio-style) downgrades the
// runtime cost from msync to cache flushing.
TEST(TspPlannerTest, PreservedMemoryNeedsOnlyCacheFlush) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kKernelPanic);
  HardwareProfile hw = HardwareProfile::ConventionalServer();
  hw.memory_preserved_across_reboot = true;
  const PersistencePlan plan = PlanPersistence(req, hw);
  EXPECT_FALSE(plan.is_tsp);
  EXPECT_EQ(plan.runtime_action, RuntimeAction::kSyncCacheFlush);
}

// §3: WSP — power outages handled entirely by standby energy; zero
// failure-free overhead.
TEST(TspPlannerTest, PowerOutageWithStandbyEnergyIsTsp) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kPowerOutage);
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::WspMachine());
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_TRUE(HasAction(plan, FailureTimeAction::kStandbyEnergyRescue));
}

// NVM without standby energy still needs eager cache flushing for power
// outages (the cache is volatile).
TEST(TspPlannerTest, PowerOutageOnBareNvmNeedsSyncFlush) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kPowerOutage);
  req.needs_rollback = true;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::NvramMachine());
  EXPECT_FALSE(plan.is_tsp);
  EXPECT_EQ(plan.runtime_action, RuntimeAction::kSyncCacheFlush);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kLogAndFlush);
}

// Combining failure classes takes the strongest runtime requirement.
TEST(TspPlannerTest, CombinationTakesStrongestRuntimeAction) {
  Requirements req;
  req.tolerated = FailureSet::All();
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  EXPECT_EQ(plan.runtime_action, RuntimeAction::kSyncMsync);
  EXPECT_FALSE(plan.is_tsp);
  EXPECT_EQ(plan.backing, Location::kBlockStorage);
}

TEST(TspPlannerTest, AllFailuresOnFullTspHardwareIsStillTsp) {
  HardwareProfile hw = HardwareProfile::NvdimmServer();
  hw.standby_energy_rescue = true;
  Requirements req;
  req.tolerated = FailureSet::All();
  req.needs_rollback = true;
  const PersistencePlan plan = PlanPersistence(req, hw);
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kLogOnly);
  EXPECT_TRUE(HasAction(plan, FailureTimeAction::kRelyOnKernelPersistence));
  EXPECT_TRUE(HasAction(plan, FailureTimeAction::kPanicHandlerCacheFlush));
  EXPECT_TRUE(HasAction(plan, FailureTimeAction::kStandbyEnergyRescue));
}

// §4.1: non-blocking algorithms need no logging at all.
TEST(TspPlannerTest, NonBlockingNeedsNoAtlasMode) {
  Requirements req;
  req.tolerated = FailureSet::All();
  req.needs_rollback = false;
  HardwareProfile hw = HardwareProfile::NvdimmServer();
  hw.standby_energy_rescue = true;
  const PersistencePlan plan = PlanPersistence(req, hw);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kNone);
  EXPECT_TRUE(plan.is_tsp);
}

TEST(TspPlannerTest, EmptyToleratedSetIsVacuouslyTsp) {
  Requirements req;  // tolerates nothing
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_TRUE(plan.failure_time_actions.empty());
}

// Mutex code that survives no failure never rolls anything back, so
// it pays for no undo log: Table 1's native column.
TEST(TspPlannerTest, RollbackCodeToleratingNothingNeedsNoAtlasMode) {
  Requirements req;  // tolerates nothing
  req.needs_rollback = true;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  EXPECT_TRUE(plan.feasible);
  EXPECT_TRUE(plan.is_tsp);
  EXPECT_EQ(plan.atlas_mode, PersistenceMode::kNone);
  EXPECT_NE(plan.ToString().find("no failure is tolerated"),
            std::string::npos);
}

TEST(TspPlannerTest, ToStringMentionsKeyDecisions) {
  Requirements req;
  req.tolerated = FailureSet::Of(FailureClass::kProcessCrash);
  req.needs_rollback = true;
  const PersistencePlan plan =
      PlanPersistence(req, HardwareProfile::ConventionalServer());
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("TSP"), std::string::npos);
  EXPECT_NE(text.find("log-only"), std::string::npos);
  EXPECT_NE(text.find("kernel"), std::string::npos);
}

}  // namespace
}  // namespace tsp
