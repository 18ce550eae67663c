// Copyright 2026 The TSP Authors.
// Multi-domain persistence: one process holding many domains open at
// once — on distinct address slots and both backends (posix file and
// anonymous test memory) — plus sharded domains and the
// refusals that keep a shard set and its address slots consistent.

#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "domain/persistence_domain.h"
#include "pheap/backend.h"
#include "pheap/test_util.h"

namespace tsp::domain {
namespace {

using pheap::testing::ScopedRegionFile;
using pheap::testing::UniqueRegionPath;

struct Counter {
  static constexpr std::uint32_t kPersistentTypeId = 0x434E5452;  // "CNTR"
  std::uint64_t value;
};

pheap::TypeRegistry MakeRegistry() {
  pheap::TypeRegistry registry;
  registry.Register<Counter>("Counter", nullptr);
  return registry;
}

PersistenceDomain::Options BaseOptions(
    const std::string& path,
    std::shared_ptr<pheap::RegionBackend> backend = nullptr) {
  PersistenceDomain::Options options;
  options.path = path;
  options.region.size = 16 * 1024 * 1024;
  options.region.runtime_area_size = 2 * 1024 * 1024;
  options.region.backend = std::move(backend);
  options.requirements.tolerated =
      FailureSet::Of(FailureClass::kProcessCrash);
  options.requirements.needs_rollback = true;
  return options;
}

// Four domains open concurrently in one process, each in its own
// address slot, two on each backend: a /dev/shm heap is a plain path on
// the default PosixFileBackend, used as given, and each anonymous domain
// has its own AnonTestBackend instance.
TEST(DomainRegistryTest, FourConcurrentDomainsOnDistinctBackends) {
  const pheap::TypeRegistry registry = MakeRegistry();
  ScopedRegionFile posix_file("reg_posix");
  ScopedRegionFile shm_file("reg_shm");
  ASSERT_EQ(shm_file.path().rfind("/dev/shm/", 0), 0u);

  auto posix = PersistenceDomain::Open(BaseOptions(posix_file.path()),
                                       &registry);
  auto shm = PersistenceDomain::Open(BaseOptions(shm_file.path()),
                                     &registry);
  auto anon = PersistenceDomain::Open(
      BaseOptions("anon:reg", std::make_shared<pheap::AnonTestBackend>()),
      &registry);
  auto anon2 = PersistenceDomain::Open(
      BaseOptions("anon:reg2", std::make_shared<pheap::AnonTestBackend>()),
      &registry);

  ASSERT_TRUE(posix.ok()) << posix.status().ToString();
  ASSERT_TRUE(shm.ok()) << shm.status().ToString();
  ASSERT_TRUE(anon.ok()) << anon.status().ToString();
  ASSERT_TRUE(anon2.ok()) << anon2.status().ToString();
  const std::vector<PersistenceDomain*> domains = {
      posix->get(), shm->get(), anon->get(), anon2->get()};

  // Both backends among them, each domain in its own address slot.
  std::set<std::string> backends;
  std::set<std::uint32_t> slots;
  std::set<void*> bases;
  for (PersistenceDomain* domain : domains) {
    backends.insert(domain->heap()->region()->backend()->name());
    slots.insert(domain->heap()->region()->address_slot());
    bases.insert(domain->heap()->region()->base());
  }
  EXPECT_EQ(backends, (std::set<std::string>{"posix-file", "anon-test"}));
  EXPECT_EQ(slots.size(), 4u);
  EXPECT_EQ(bases.size(), 4u);
  EXPECT_EQ((*shm)->heap()->region()->path(), shm_file.path());

  // All four are simultaneously writable.
  for (PersistenceDomain* domain : domains) {
    auto* counter = domain->heap()->New<Counter>();
    ASSERT_NE(counter, nullptr);
    domain->heap()->set_root(counter);
  }
  for (PersistenceDomain* domain : domains) domain->CloseClean();
}

// A sharded domain: N heaps, each with its own runtime, all recovered
// after a simulated crash (heaps destroyed without CloseClean).
TEST(DomainRegistryTest, ShardedDomainRecoversAllShards) {
  const pheap::TypeRegistry registry = MakeRegistry();
  const std::string path = UniqueRegionPath("reg_sharded");
  auto options = BaseOptions(path);
  options.shards = 4;

  for (const std::string& shard_path :
       PersistenceDomain::ShardPaths(options)) {
    ::unlink(shard_path.c_str());
  }
  ASSERT_EQ(PersistenceDomain::ShardPaths(options).size(), 4u);

  {
    auto domain = PersistenceDomain::Open(options, &registry);
    ASSERT_TRUE(domain.ok()) << domain.status().ToString();
    EXPECT_EQ((*domain)->shard_count(), 4);
    EXPECT_FALSE((*domain)->recovered());
    std::set<std::uint32_t> slots;
    for (int s = 0; s < 4; ++s) {
      ASSERT_NE((*domain)->runtime(s), nullptr);
      slots.insert((*domain)->heap(s)->region()->address_slot());
      auto* counter = (*domain)->heap(s)->New<Counter>();
      ASSERT_NE(counter, nullptr);
      (*domain)->heap(s)->set_root(counter);
    }
    EXPECT_EQ(slots.size(), 4u) << "shards share an address slot";
    // crash: destroy without CloseClean
  }

  {
    auto domain = PersistenceDomain::Open(options, &registry);
    ASSERT_TRUE(domain.ok()) << domain.status().ToString();
    EXPECT_TRUE((*domain)->recovered());
    ASSERT_EQ((*domain)->shard_recoveries().size(), 4u);
    for (int s = 0; s < 4; ++s) {
      // Every shard went through the full pipeline and kept its root.
      EXPECT_TRUE((*domain)->shard_recoveries()[s].atlas.performed);
      EXPECT_NE((*domain)->heap(s)->root<Counter>(), nullptr);
    }
    (*domain)->CloseClean();
  }

  {
    auto domain = PersistenceDomain::Open(options, &registry);
    ASSERT_TRUE(domain.ok());
    EXPECT_FALSE((*domain)->recovered());
    (*domain)->CloseClean();
  }
  for (const std::string& shard_path :
       PersistenceDomain::ShardPaths(options)) {
    ::unlink(shard_path.c_str());
  }
}

// Nothing persistent records a bare domain's shard count, so the files
// on disk are the record: a reopen at more or fewer shards is refused
// before any file is created.
TEST(DomainRegistryTest, ReopenAtAnotherShardCountIsRefused) {
  const pheap::TypeRegistry registry = MakeRegistry();
  const std::string path = UniqueRegionPath("reg_reshard");
  auto two = BaseOptions(path);
  two.shards = 2;
  {
    auto domain = PersistenceDomain::Open(two, &registry);
    ASSERT_TRUE(domain.ok()) << domain.status().ToString();
    (*domain)->CloseClean();
  }

  auto four = two;
  four.shards = 4;
  auto more = PersistenceDomain::Open(four, &registry);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(::access((path + ".shard2").c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".shard3").c_str(), F_OK), 0);

  auto one = two;
  one.shards = 1;
  auto fewer = PersistenceDomain::Open(one, &registry);
  ASSERT_FALSE(fewer.ok());
  EXPECT_EQ(fewer.status().code(), StatusCode::kFailedPrecondition);

  // The matching count still opens, and the set is unchanged.
  auto same = PersistenceDomain::Open(two, &registry);
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  EXPECT_EQ((*same)->shard_count(), 2);
  EXPECT_FALSE((*same)->recovered());
  (*same)->CloseClean();
  same->reset();
  for (const std::string& shard_path : PersistenceDomain::ShardPaths(two)) {
    ::unlink(shard_path.c_str());
  }
}

// Every heap records the lowest slot free when it was created, so two
// domains created one after the other (the first closed in between)
// record the same slot: the one placement rule is that domains which
// must be open together are created together. Opening the first while
// the second holds the slot is refused, and succeeds once it closes.
TEST(DomainRegistryTest, DomainsCreatedApartCannotBeOpenTogether) {
  const pheap::TypeRegistry registry = MakeRegistry();
  ScopedRegionFile first_file("reg_apart1");
  ScopedRegionFile second_file("reg_apart2");
  auto first = PersistenceDomain::Open(BaseOptions(first_file.path()),
                                       &registry);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::uint32_t slot = (*first)->heap()->region()->address_slot();
  (*first)->CloseClean();
  first->reset();

  auto second = PersistenceDomain::Open(BaseOptions(second_file.path()),
                                        &registry);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*second)->heap()->region()->address_slot(), slot);

  auto again = PersistenceDomain::Open(BaseOptions(first_file.path()),
                                       &registry);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);

  (*second)->CloseClean();
  second->reset();
  again = PersistenceDomain::Open(BaseOptions(first_file.path()), &registry);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->heap()->region()->address_slot(), slot);
  (*again)->CloseClean();
}

}  // namespace
}  // namespace tsp::domain
