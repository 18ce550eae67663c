#include "workload/workload.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>

#include "pheap/test_util.h"
#include "workload/map_session.h"

namespace tsp::workload {
namespace {

using pheap::testing::ScopedRegionFile;

MapSession::Config SmallConfig(MapVariant variant, const std::string& path) {
  MapSession::Config config;
  config.variant = variant;
  config.path = path;
  config.heap_size = 128 * 1024 * 1024;
  config.runtime_area_size = 8 * 1024 * 1024;
  config.hash_options.bucket_count = 1 << 14;
  return config;
}

class WorkloadVariantTest : public ::testing::TestWithParam<MapVariant> {};

TEST_P(WorkloadVariantTest, CompletedRunSatisfiesInvariantsExactly) {
  ScopedRegionFile file("workload");
  auto session = MapSession::OpenOrCreate(SmallConfig(GetParam(), file.path()));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  WorkloadOptions options;
  options.threads = 4;
  options.high_range = 1024;
  options.iterations_per_thread = 3000;
  const WorkloadResult result = RunMapWorkload((*session)->map(), options);
  EXPECT_EQ(result.total_iterations, 4u * 3000);
  EXPECT_GT(result.millions_iter_per_sec, 0.0);

  const InvariantReport report =
      CheckMapInvariants(*(*session)->map(), options.threads);
  EXPECT_TRUE(report.ok) << report.ToString();
  // A completed run is exact: every counter hit the iteration count and
  // every iteration incremented H exactly once.
  EXPECT_EQ(report.sum_c1, 4u * 3000);
  EXPECT_EQ(report.sum_c2, 4u * 3000);
  EXPECT_EQ(report.sum_high, 4u * 3000);
  (*session)->CloseClean();
}

TEST_P(WorkloadVariantTest, StateSurvivesCleanReopen) {
  ScopedRegionFile file("workload_reopen");
  const auto config = SmallConfig(GetParam(), file.path());
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok());
    WorkloadOptions options;
    options.threads = 2;
    options.high_range = 64;
    options.iterations_per_thread = 500;
    RunMapWorkload((*session)->map(), options);
    (*session)->CloseClean();
  }
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok());
    EXPECT_FALSE((*session)->recovered());
    const InvariantReport report =
        CheckMapInvariants(*(*session)->map(), 2);
    EXPECT_TRUE(report.ok) << report.ToString();
    EXPECT_EQ(report.sum_c2, 1000u);
    (*session)->CloseClean();
  }
}

TEST_P(WorkloadVariantTest, UncleanReopenRunsRecoveryAndKeepsInvariants) {
  ScopedRegionFile file("workload_crash");
  const auto config = SmallConfig(GetParam(), file.path());
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok());
    WorkloadOptions options;
    options.threads = 2;
    options.high_range = 64;
    options.iterations_per_thread = 500;
    RunMapWorkload((*session)->map(), options);
    // No CloseClean: simulated crash at a quiescent instant.
  }
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_TRUE((*session)->recovered());
    const InvariantReport report =
        CheckMapInvariants(*(*session)->map(), 2);
    EXPECT_TRUE(report.ok) << report.ToString();
    EXPECT_EQ(report.sum_c2, 1000u) << "quiescent crash loses nothing";
    (*session)->CloseClean();
  }
}

std::vector<MapVariant> EveryVariant() {
  std::vector<MapVariant> variants;
  for (const MapVariantRow& row : MapVariantRows()) {
    variants.push_back(row.variant);
  }
  return variants;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, WorkloadVariantTest, ::testing::ValuesIn(EveryVariant()),
    [](const auto& info) {
      std::string name = MapVariantName(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// A heap reopened as another variant is refused in both directions:
// from a variant with an Atlas mode to one without, and back, although
// the domain attaches the reopening variant's runtime before the
// session root is read. The refused reopen leaves the heap intact.
TEST(MapSessionTest, VariantMismatchIsRejected) {
  for (const auto& [created, reopened] :
       {std::pair{MapVariant::kMutexLogOnly, MapVariant::kLockFreeSkipList},
        std::pair{MapVariant::kLockFreeHashMap, MapVariant::kMutexLogOnly}}) {
    ScopedRegionFile file("mismatch");
    auto config = SmallConfig(created, file.path());
    {
      auto session = MapSession::OpenOrCreate(config);
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      (*session)->map()->Put(7, 70);
      (*session)->CloseClean();
    }
    auto wrong = config;
    wrong.variant = reopened;
    auto session = MapSession::OpenOrCreate(wrong);
    ASSERT_FALSE(session.ok()) << MapVariantName(created);
    EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition)
        << session.status().ToString();
    EXPECT_NE(session.status().message().find(MapVariantName(created)),
              std::string::npos)
        << session.status().ToString();

    auto again = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ((*again)->map()->Get(7), std::optional<std::uint64_t>(70));
    (*again)->CloseClean();
  }
}

// Every row opens in its plan's Atlas mode, and only a plan with an
// Atlas mode can attach: the lock-free variants keep per-process
// volatile state (epoch reclamation domain, descent hints) that a
// cooperative multi-process join cannot share, and mutex-native has no
// robust lock table to share its locks through. PersistenceDomain::
// Attach refuses those up front, before any file is opened (attaching
// to a missing heap file would otherwise fail NotFound); the others
// join the owner's domain.
TEST(MapSessionTest, AttachRejectedForLockFreeVariants) {
  for (const MapVariantRow& row : MapVariantRows()) {
    SCOPED_TRACE(row.name);
    const PersistencePlan plan = row.plan();
    const auto expect_mode = [&](MapSession* session) {
      if (plan.atlas_mode == PersistenceMode::kNone) {
        EXPECT_EQ(session->runtime(), nullptr);
      } else {
        ASSERT_NE(session->runtime(), nullptr);
        EXPECT_EQ(session->runtime()->policy().mode(), plan.atlas_mode);
      }
    };
    ScopedRegionFile file("lf_attach");
    auto config = SmallConfig(row.variant, file.path());
    if (plan.atlas_mode == PersistenceMode::kNone) {
      auto joiner = config;
      joiner.attach = true;
      auto session = MapSession::OpenOrCreate(joiner);
      ASSERT_FALSE(session.ok());
      EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
          << session.status().ToString();
      EXPECT_NE(::access(file.path().c_str(), F_OK), 0)
          << "the refused attach touched " << file.path();
    }
    {
      auto owner = MapSession::OpenOrCreate(config);
      ASSERT_TRUE(owner.ok()) << owner.status().ToString();
      expect_mode(owner->get());
      (*owner)->map()->Put(1, 2);
      (*owner)->CloseClean();
    }
    config.attach = true;
    auto session = MapSession::OpenOrCreate(config);
    if (plan.atlas_mode == PersistenceMode::kNone) {
      ASSERT_FALSE(session.ok());
      EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument)
          << session.status().ToString();
    } else {
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      expect_mode(session->get());
      EXPECT_EQ((*session)->map()->Get(1), std::optional<std::uint64_t>(2));
      (*session)->CloseDetach();
    }
  }
}

// A log-only map binds its lock stripes to the Atlas robust words only
// when there is a word for each (256 words, 1024 buckets per stripe).
// With more stripes its locks are process-local, so attach must fail.
// The bucket count rounds up to a power of two: 2^18 + 1 buckets are
// 2^19, 512 stripes; 2^18 buckets are exactly 256 stripes.
TEST(MapSessionTest, AttachRefusedWhenStripesOutnumberRobustWords) {
  for (const std::uint64_t buckets : {(1u << 18) + 1, 1u << 18}) {
    ScopedRegionFile file("stripe_attach");
    auto config = SmallConfig(MapVariant::kMutexLogOnly, file.path());
    config.hash_options.bucket_count = buckets;
    config.hash_options.buckets_per_lock = 1024;
    {
      auto owner = MapSession::OpenOrCreate(config);
      ASSERT_TRUE(owner.ok()) << owner.status().ToString();
      ASSERT_EQ((*owner)->runtime()->robust_lock_count(), 256u);
      (*owner)->CloseClean();
    }
    config.attach = true;
    auto session = MapSession::OpenOrCreate(config);
    if (buckets == (1u << 18) + 1) {
      ASSERT_FALSE(session.ok());
      EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition)
          << session.status().ToString();
    } else {
      ASSERT_TRUE(session.ok()) << session.status().ToString();
      (*session)->map()->Put(1, 2);
      EXPECT_EQ((*session)->map()->Get(1), std::optional<std::uint64_t>(2));
      (*session)->CloseDetach();
    }
  }
}

// A mutex map indexes buckets with a mask, so a root whose stored
// bucket count is not a power of two (a map written by an older build)
// is refused with one diagnostic instead of being served.
TEST(MapSessionTest, MutexMapWithAnUnmaskableBucketCountIsRefused) {
  ScopedRegionFile file("odd_buckets");
  auto config = SmallConfig(MapVariant::kMutexLogOnly, file.path());
  config.hash_options.bucket_count = 1000;
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto* map = static_cast<maps::MutexHashMap*>((*session)->map());
    EXPECT_EQ(map->bucket_count(), 1024u) << "rounded up at creation";
    const auto record = MapSession::ReadRoot(*(*session)->heap());
    ASSERT_TRUE(record.has_value());
    // Shrinking the count keeps every stored chain inside the array.
    static_cast<maps::HashMapRoot*>(const_cast<void*>(record->map_root))
        ->buckets->bucket_count = 1000;
    (*session)->CloseClean();
  }
  auto session = MapSession::OpenOrCreate(config);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kCorruption);
  EXPECT_NE(session.status().message().find("1000 buckets"),
            std::string::npos)
      << session.status().ToString();
}

TEST(MapSessionTest, VariantNamesAreStable) {
  EXPECT_STREQ(MapVariantName(MapVariant::kMutexNative), "mutex-native");
  EXPECT_STREQ(MapVariantName(MapVariant::kMutexLogOnly),
               "mutex-atlas-log-only");
  EXPECT_STREQ(MapVariantName(MapVariant::kMutexLogFlush),
               "mutex-atlas-log+flush");
  EXPECT_STREQ(MapVariantName(MapVariant::kLockFreeSkipList),
               "lockfree-skiplist");
  EXPECT_STREQ(MapVariantName(MapVariant::kLockFreeSkipListSharded),
               "lockfree-skiplist-sharded");
  EXPECT_STREQ(MapVariantName(MapVariant::kLockFreeHashMap),
               "lockfree-hashmap");
}

TEST(InvariantTest, DetectsEquation1Violation) {
  ScopedRegionFile file("inv1");
  auto session = MapSession::OpenOrCreate(
      SmallConfig(MapVariant::kMutexNative, file.path()));
  ASSERT_TRUE(session.ok());
  maps::Map* map = (*session)->map();
  // c1 ran two iterations ahead of c2: impossible under the protocol.
  map->Put(C1Key(0), 5);
  map->Put(C2Key(0), 3);
  const InvariantReport report = CheckMapInvariants(*map, 1);
  EXPECT_FALSE(report.ok);
  (*session)->CloseClean();
}

TEST(InvariantTest, DetectsEquation2Violation) {
  ScopedRegionFile file("inv2");
  auto session = MapSession::OpenOrCreate(
      SmallConfig(MapVariant::kMutexNative, file.path()));
  ASSERT_TRUE(session.ok());
  maps::Map* map = (*session)->map();
  // H contains more increments than iterations started.
  map->Put(C1Key(0), 1);
  map->Put(C2Key(0), 1);
  map->Put(HighKey(3), 10);
  const InvariantReport report = CheckMapInvariants(*map, 1);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.error.find("Eq.(2)"), std::string::npos);
  (*session)->CloseClean();
}

TEST(InvariantTest, EmptyMapIsConsistent) {
  ScopedRegionFile file("inv_empty");
  auto session = MapSession::OpenOrCreate(
      SmallConfig(MapVariant::kMutexNative, file.path()));
  ASSERT_TRUE(session.ok());
  const InvariantReport report =
      CheckMapInvariants(*(*session)->map(), 8);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(report.completed_iterations, 0u);
  (*session)->CloseClean();
}

TEST(InvariantTest, MidIterationStateIsConsistent) {
  ScopedRegionFile file("inv_mid");
  auto session = MapSession::OpenOrCreate(
      SmallConfig(MapVariant::kMutexNative, file.path()));
  ASSERT_TRUE(session.ok());
  maps::Map* map = (*session)->map();
  // Crash between step 1 and step 2 of iteration 4: c1=4, H=3, c2=3.
  map->Put(C1Key(0), 4);
  map->Put(C2Key(0), 3);
  map->Put(HighKey(0), 3);
  const InvariantReport report = CheckMapInvariants(*map, 1);
  EXPECT_TRUE(report.ok) << report.ToString();
  (*session)->CloseClean();
}

}  // namespace
}  // namespace tsp::workload
