// Copyright 2026 The TSP Authors.
// ShardedMap: one Map facade over N independent shard maps, each
// backed by its own persistent heap (and, for the mutex variants, its
// own Atlas runtime and undo logs).
//
// Routing is by key hash, so every operation touches exactly one
// shard: one OCS in one shard's log, no cross-shard lock-dependency
// edges, and therefore crash recovery that runs shard by shard
// (atlas::RecoverHeap). The workload invariants of §5.1 are
// statements about per-key sums, so they hold over the union of shards
// exactly as over one map.

#ifndef TSP_MAPS_SHARDED_MAP_H_
#define TSP_MAPS_SHARDED_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "maps/map_interface.h"

namespace tsp::maps {

class ShardedMap final : public Map {
 public:
  /// Takes ownership of the shard maps. At least one; the shard count
  /// is fixed for the life of the persistent data (rehashing between
  /// shard heaps is not supported — recreate to reshard).
  explicit ShardedMap(std::vector<std::unique_ptr<Map>> shards);

  /// The shard a key routes to, out of `shard_count`. Deliberately a
  /// different mix than MutexHashMap's bucket hash so shard choice and
  /// bucket choice stay uncorrelated.
  static std::size_t ShardOf(std::uint64_t key, std::size_t shard_count);

  std::size_t shard_count() const { return shards_.size(); }
  Map* shard(std::size_t i) { return shards_[i].get(); }

  void Put(std::uint64_t key, std::uint64_t value) override;
  std::optional<std::uint64_t> Get(std::uint64_t key) const override;
  std::uint64_t IncrementBy(std::uint64_t key, std::uint64_t delta) override;
  bool Remove(std::uint64_t key) override;
  void ForEach(const std::function<void(std::uint64_t, std::uint64_t)>& fn)
      const override;
  const char* name() const override { return name_.c_str(); }
  void OnThreadExit() override;

 private:
  Map& Route(std::uint64_t key) const {
    return *shards_[ShardOf(key, shards_.size())];
  }

  std::vector<std::unique_ptr<Map>> shards_;
  std::string name_;
};

}  // namespace tsp::maps

#endif  // TSP_MAPS_SHARDED_MAP_H_
