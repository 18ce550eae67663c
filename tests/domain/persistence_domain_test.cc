#include "domain/persistence_domain.h"

#include <gtest/gtest.h>

#include "atlas/pmutex.h"
#include "pheap/test_util.h"

namespace tsp::domain {
namespace {

using pheap::testing::ScopedRegionFile;

struct Counter {
  static constexpr std::uint32_t kPersistentTypeId = 0x434E5452;  // "CNTR"
  std::uint64_t value;
};

pheap::TypeRegistry MakeRegistry() {
  pheap::TypeRegistry registry;
  registry.Register<Counter>("Counter", nullptr);
  return registry;
}

PersistenceDomain::Options BaseOptions(const std::string& path) {
  PersistenceDomain::Options options;
  options.path = path;
  options.region.size = 32 * 1024 * 1024;
  options.region.runtime_area_size = 2 * 1024 * 1024;
  return options;
}

TEST(PersistenceDomainTest, NonBlockingProcessCrashPlanHasNoRuntime) {
  ScopedRegionFile file("dom_nb");
  auto options = BaseOptions(file.path());
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kProcessCrash);
  options.requirements.needs_rollback = false;
  const pheap::TypeRegistry registry = MakeRegistry();
  auto domain = PersistenceDomain::Open(options, &registry);
  ASSERT_TRUE(domain.ok()) << domain.status().ToString();
  EXPECT_TRUE((*domain)->plan().is_tsp);
  EXPECT_EQ((*domain)->runtime(), nullptr);
  EXPECT_TRUE((*domain)->Commit().ok()) << "no-op commit";
  (*domain)->CloseClean();
}

TEST(PersistenceDomainTest, MutexProcessCrashPlanAttachesLogOnlyRuntime) {
  ScopedRegionFile file("dom_mx");
  auto options = BaseOptions(file.path());
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kProcessCrash);
  options.requirements.needs_rollback = true;
  const pheap::TypeRegistry registry = MakeRegistry();
  auto domain = PersistenceDomain::Open(options, &registry);
  ASSERT_TRUE(domain.ok());
  ASSERT_NE((*domain)->runtime(), nullptr);
  EXPECT_EQ((*domain)->runtime()->policy().mode(),
            PersistenceMode::kLogOnly);
  (*domain)->CloseClean();
}

TEST(PersistenceDomainTest, NonTspHardwareGetsLogAndFlush) {
  ScopedRegionFile file("dom_flush");
  auto options = BaseOptions(file.path());
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kPowerOutage);
  options.requirements.needs_rollback = true;
  options.hardware = HardwareProfile::NvramMachine();  // no standby energy
  const pheap::TypeRegistry registry = MakeRegistry();
  auto domain = PersistenceDomain::Open(options, &registry);
  ASSERT_TRUE(domain.ok());
  EXPECT_FALSE((*domain)->plan().is_tsp);
  ASSERT_NE((*domain)->runtime(), nullptr);
  EXPECT_EQ((*domain)->runtime()->policy().mode(),
            PersistenceMode::kLogAndFlush);
  (*domain)->CloseClean();
}

TEST(PersistenceDomainTest, MsyncPlanCommitSyncs) {
  ScopedRegionFile file("dom_msync");
  auto options = BaseOptions(file.path());
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kKernelPanic);
  options.requirements.needs_rollback = false;
  // Conventional hardware without panic support → sync msync plan.
  const pheap::TypeRegistry registry = MakeRegistry();
  auto domain = PersistenceDomain::Open(options, &registry);
  ASSERT_TRUE(domain.ok());
  EXPECT_EQ((*domain)->plan().runtime_action, RuntimeAction::kSyncMsync);
  auto* counter = (*domain)->heap()->New<Counter>();
  counter->value = 42;
  (*domain)->heap()->set_root(counter);
  EXPECT_TRUE((*domain)->Commit().ok());
  (*domain)->CloseClean();
}

TEST(PersistenceDomainTest, FullCrashRecoveryCycle) {
  ScopedRegionFile file("dom_cycle");
  const pheap::TypeRegistry registry = MakeRegistry();
  auto options = BaseOptions(file.path());
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kProcessCrash);
  options.requirements.needs_rollback = true;

  {
    auto domain = PersistenceDomain::Open(options, &registry);
    ASSERT_TRUE(domain.ok());
    auto* counter = (*domain)->heap()->New<Counter>();
    counter->value = 0;
    (*domain)->heap()->set_root(counter);

    atlas::PMutex mutex((*domain)->runtime());
    atlas::AtlasThread* thread = (*domain)->runtime()->CurrentThread();
    {
      atlas::PMutexLock lock(&mutex);
      thread->Store(&counter->value, std::uint64_t{7});
    }
    // Crash inside a new OCS.
    atlas::PLockWord word;
    thread->OnAcquire(&word, 1);
    thread->Store(&counter->value, std::uint64_t{666});
    // destroy without CloseClean
  }
  {
    auto domain = PersistenceDomain::Open(options, &registry);
    ASSERT_TRUE(domain.ok()) << domain.status().ToString();
    EXPECT_TRUE((*domain)->recovered());
    EXPECT_EQ((*domain)->recovery().atlas.ocses_incomplete, 1u);
    EXPECT_EQ((*domain)->heap()->root<Counter>()->value, 7u)
        << "interrupted OCS rolled back by the domain's recovery";
    (*domain)->CloseClean();
  }
}

// An orderly close runs one last stability pass: it stabilizes an OCS
// still pending (and applies its deferred free), which destroying the
// runtime would leave as a crash does.
TEST(PersistenceDomainTest, CloseCleanStabilizesPendingOcses) {
  ScopedRegionFile file("dom_close");
  const pheap::TypeRegistry registry = MakeRegistry();
  auto options = BaseOptions(file.path());
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kProcessCrash);
  options.requirements.needs_rollback = true;
  auto domain = PersistenceDomain::Open(options, &registry);
  ASSERT_TRUE(domain.ok()) << domain.status().ToString();
  atlas::AtlasRuntime* runtime = (*domain)->runtime();
  auto* counter = (*domain)->heap()->New<Counter>();

  // The thread's OCS takes a lock a peer released mid-OCS, so it
  // publishes with a dependency on an open OCS; the peer then commits
  // inline, which runs no pass, and the OCS stays pending.
  atlas::AtlasThread* thread = runtime->CurrentThread();
  atlas::AtlasThread peer(runtime, 40);
  atlas::PLockWord outer;
  atlas::PLockWord shared;
  peer.OnAcquire(&outer, 1);
  peer.OnAcquire(&shared, 2);
  peer.OnRelease(&shared, 2);
  thread->OnAcquire(&shared, 2);
  thread->Store(&counter->value, std::uint64_t{1});
  thread->DeferFree(counter);
  thread->OnRelease(&shared, 2);
  peer.OnRelease(&outer, 1);
  ASSERT_EQ(runtime->stability()->PendingCount(), 1u);
  const atlas::ThreadLogHeader* slot =
      runtime->area().slot(thread->thread_id());
  ASSERT_LT(slot->stable_ocs.load(), slot->committed_ocs.load());

  (*domain)->CloseClean();  // the heap stays mapped until destruction
  EXPECT_EQ(slot->stable_ocs.load(), slot->committed_ocs.load());
}

TEST(PersistenceDomainTest, NullRegistryRejected) {
  ScopedRegionFile file("dom_null");
  auto options = BaseOptions(file.path());
  auto domain = PersistenceDomain::Open(options, nullptr);
  EXPECT_EQ(domain.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tsp::domain
