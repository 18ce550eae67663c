// Copyright 2026 The TSP Authors.
// ShardedMap: hash routing, the Map contract across shards, key
// distribution, persistence through a sharded MapSession (including
// reopen at the same shard count and refusal to reshard), and the
// §5.1 invariants under a real multi-threaded workload.

#include "maps/sharded_map.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "pheap/test_util.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp {
namespace {

using maps::ShardedMap;
using workload::MapSession;
using workload::MapVariant;

MapSession::Config ShardedConfig(const std::string& path, int shards) {
  MapSession::Config config;
  config.variant = MapVariant::kMutexLogOnly;
  config.path = path;
  config.heap_size = 64 * 1024 * 1024;
  config.runtime_area_size = 8 * 1024 * 1024;
  config.hash_options.bucket_count = 1 << 12;
  config.shards = shards;
  return config;
}

void UnlinkShards(const MapSession::Config& config) {
  for (const std::string& path : MapSession::ShardPaths(config)) {
    ::unlink(path.c_str());
  }
}

TEST(ShardedMapTest, RoutingIsDeterministicAndInRange) {
  for (std::uint64_t key = 0; key < 1000; ++key) {
    const std::size_t shard = ShardedMap::ShardOf(key, 4);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, ShardedMap::ShardOf(key, 4));
  }
}

TEST(ShardedMapTest, RoutingSpreadsSequentialKeys) {
  // splitmix64 finalization must not leave sequential keys clumped on
  // one shard: over 4096 keys every shard of 8 gets a meaningful cut.
  std::vector<int> counts(8, 0);
  for (std::uint64_t key = 0; key < 4096; ++key) {
    ++counts[ShardedMap::ShardOf(key, 8)];
  }
  for (const int count : counts) {
    EXPECT_GT(count, 4096 / 16) << "shard starved";
    EXPECT_LT(count, 4096 / 4) << "shard overloaded";
  }
}

TEST(ShardedMapTest, MapContractAcrossShards) {
  const std::string path =
      pheap::testing::UniqueRegionPath("shardmap_contract");
  MapSession::Config config = ShardedConfig(path, 4);
  UnlinkShards(config);
  auto session = MapSession::OpenOrCreate(config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_EQ((*session)->shard_count(), 4);
  maps::Map* map = (*session)->map();

  for (std::uint64_t key = 0; key < 500; ++key) {
    map->Put(key, key * 10);
  }
  for (std::uint64_t key = 0; key < 500; ++key) {
    const auto got = map->Get(key);
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(*got, key * 10);
  }
  EXPECT_FALSE(map->Get(9999).has_value());

  EXPECT_EQ(map->IncrementBy(7, 5), 75u);  // 7*10 + 5
  EXPECT_EQ(map->IncrementBy(10000, 3), 3u);

  EXPECT_TRUE(map->Remove(3));
  EXPECT_FALSE(map->Remove(3));
  EXPECT_FALSE(map->Get(3).has_value());

  // ForEach visits every surviving key exactly once, across all shards.
  std::set<std::uint64_t> seen;
  map->ForEach([&](std::uint64_t key, std::uint64_t value) {
    (void)value;
    EXPECT_TRUE(seen.insert(key).second) << "key visited twice: " << key;
  });
  EXPECT_EQ(seen.size(), 500u);  // 500 puts - removed 3 + new 10000
  EXPECT_EQ(seen.count(3), 0u);
  EXPECT_EQ(seen.count(10000), 1u);

  (*session)->CloseClean();
  session->reset();
  UnlinkShards(config);
}

TEST(ShardedMapTest, DataPersistsAcrossCleanReopen) {
  const std::string path =
      pheap::testing::UniqueRegionPath("shardmap_reopen");
  MapSession::Config config = ShardedConfig(path, 4);
  UnlinkShards(config);
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (std::uint64_t key = 0; key < 256; ++key) {
      (*session)->map()->Put(key, ~key);
    }
    (*session)->CloseClean();
  }
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_FALSE((*session)->recovered());
    for (std::uint64_t key = 0; key < 256; ++key) {
      const auto got = (*session)->map()->Get(key);
      ASSERT_TRUE(got.has_value()) << key;
      EXPECT_EQ(*got, ~key);
    }
    (*session)->CloseClean();
  }
  UnlinkShards(config);
}

TEST(ShardedMapTest, ReshardingIsRefused) {
  const std::string path =
      pheap::testing::UniqueRegionPath("shardmap_reshard");
  MapSession::Config config = ShardedConfig(path, 2);
  UnlinkShards(config);
  {
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    (*session)->CloseClean();
  }
  // Reopening shard 0 as part of a 4-shard session must fail loudly:
  // the persistent data was hashed for 2 shards. The refusal comes
  // before the missing shards are created.
  MapSession::Config wrong = ShardedConfig(path, 4);
  auto session = MapSession::OpenOrCreate(wrong);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(::access((path + ".shard2").c_str(), F_OK), 0);
  EXPECT_NE(::access((path + ".shard3").c_str(), F_OK), 0);
  UnlinkShards(config);
}

TEST(ShardedMapTest, WorkloadInvariantsHoldOnShardedMap) {
  const std::string path =
      pheap::testing::UniqueRegionPath("shardmap_workload");
  MapSession::Config config = ShardedConfig(path, 4);
  UnlinkShards(config);
  auto session = MapSession::OpenOrCreate(config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  workload::WorkloadOptions options;
  options.threads = 4;
  options.iterations_per_thread = 2000;
  options.high_range = 1 << 10;
  const workload::WorkloadResult result =
      workload::RunMapWorkload((*session)->map(), options);
  EXPECT_EQ(result.total_iterations, 4u * 2000);

  const workload::InvariantReport report =
      workload::CheckMapInvariants(*(*session)->map(), options.threads);
  EXPECT_TRUE(report.ok) << report.ToString();
  EXPECT_EQ(report.completed_iterations, 4u * 2000);

  (*session)->CloseClean();
  session->reset();
  UnlinkShards(config);
}

}  // namespace
}  // namespace tsp
