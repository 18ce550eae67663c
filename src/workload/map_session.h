// Copyright 2026 The TSP Authors.
// MapSession: one-stop lifecycle for the paper's map experiments.
//
// Encapsulates, per §5 of the paper: opening (or creating) a persistent
// heap, running the recovery pipeline when the previous session crashed
// (Atlas rollback → mark-sweep GC), attaching the requested map variant,
// and exposing it through the common Map interface. Used by the
// fault-injection harness, the Table-1 benchmark, tests and examples.
//
// With Config::shards > 1 the session opens N shard heaps (each with
// its own Atlas runtime and undo logs, each in its own address slot),
// recovers them in parallel, and serves a maps::ShardedMap that routes
// operations by key hash. The workload and the Eq. (1)/(2) invariant
// checker work through the Map interface, so they apply unchanged.

#ifndef TSP_WORKLOAD_MAP_SESSION_H_
#define TSP_WORKLOAD_MAP_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "common/status.h"
#include "lockfree/hashmap.h"
#include "lockfree/skiplist.h"
#include "maps/lockfree_hashmap_adapter.h"
#include "maps/map_interface.h"
#include "maps/mutex_hashmap.h"
#include "maps/skiplist_adapter.h"
#include "pheap/backend.h"
#include "pheap/heap.h"

namespace tsp::workload {

/// The experimental map variants (Table 1's four, plus two more
/// non-blocking §4.1 implementations).
enum class MapVariant {
  kMutexNative = 0,   // "no Atlas"
  kMutexLogOnly = 1,  // Atlas in TSP mode: "log only"
  kMutexLogFlush = 2, // Atlas without TSP: "log + flush"
  kLockFreeSkipList = 3,
  /// K independent skip lists in one heap, splitmix64-routed, one
  /// shared epoch domain (Config::lockfree_shards).
  kLockFreeSkipListSharded = 4,
  /// Harris-Michael lock-free hash map (O(1) buckets, same zero-flush
  /// story; bucket count from Config::hash_options.bucket_count).
  kLockFreeHashMap = 5,
};

const char* MapVariantName(MapVariant variant);

/// A live session against one persistent map heap (or a set of shard
/// heaps).
class MapSession {
 public:
  struct Config {
    MapVariant variant = MapVariant::kMutexLogOnly;
    std::string path;
    std::size_t heap_size = 512 * 1024 * 1024;  // per shard
    std::uintptr_t base_address = 0;  // 0 = slot-allocated; shards>1 needs 0
    std::size_t runtime_area_size = 32 * 1024 * 1024;
    maps::MutexHashMap::Options hash_options;
    /// Background log-pruner interval (mutex+Atlas variants).
    std::uint32_t prune_interval_us = 200;
    /// Sequence stamps leased per block from the global counter
    /// (mutex+Atlas variants); see AtlasRuntime::Options.
    std::uint32_t seq_block_size = 64;
    /// Shard heaps backing the map (1 = classic single heap). Fixed for
    /// the life of the persistent data: reopening with a different
    /// count fails (shard 0 records the count in its session root).
    int shards = 1;
    /// Storage mechanics for every shard; null = posix files.
    std::shared_ptr<pheap::RegionBackend> backend;
    /// In-heap skip list shard count for kLockFreeSkipListSharded
    /// (fixed at creation; the persistent root records it).
    int lockfree_shards = 8;
    /// Cooperative multi-process join: open every shard with
    /// PersistentHeap::Attach + AtlasRuntime::Attach instead of the
    /// exclusive OpenOrCreate + Initialize. The domain (heaps, session
    /// roots, map roots) must already exist — attachers never create or
    /// recover it wholesale; dead peers are harvested per-slot at
    /// attach. Close such a session with CloseDetach, never CloseClean.
    /// Only the mutex+Atlas variants support attach: the lock-free
    /// variants' epoch reclamation is per-process volatile state, and
    /// mutex-native has no robust lock table, so a cooperative join is
    /// rejected (OpenOrCreate fails InvalidArgument). The attached map
    /// also needs a robust lock word per lock stripe (256 words:
    /// bucket_count <= 256 * buckets_per_lock); a map with more stripes
    /// than words fails FailedPrecondition.
    bool attach = false;
  };

  /// Opens (creating if absent) the heap(s) at config.path, runs
  /// recovery if the previous session crashed, and attaches the map.
  static StatusOr<std::unique_ptr<MapSession>> OpenOrCreate(
      const Config& config);

  /// The backing heap paths OpenOrCreate uses (index-aligned with shard
  /// numbers): path, path.shard1, ... Useful for cleanup and offline
  /// inspection.
  static std::vector<std::string> ShardPaths(const Config& config);

  ~MapSession();

  MapSession(const MapSession&) = delete;
  MapSession& operator=(const MapSession&) = delete;

  maps::Map* map() { return map_.get(); }
  const maps::Map* map() const { return map_.get(); }
  int shard_count() const { return static_cast<int>(heaps_.size()); }
  pheap::PersistentHeap* heap() { return heaps_[0].get(); }
  pheap::PersistentHeap* heap(int shard) { return heaps_[shard].get(); }
  atlas::AtlasRuntime* runtime() {
    return runtimes_.empty() ? nullptr : runtimes_[0].get();
  }
  atlas::AtlasRuntime* runtime(int shard) {
    return runtimes_.empty() ? nullptr : runtimes_[shard].get();
  }
  MapVariant variant() const { return config_.variant; }

  /// True if this open performed crash recovery (on any shard).
  bool recovered() const { return recovered_; }
  /// Shard-summed recovery statistics.
  const atlas::RecoveryStats& recovery_stats() const {
    return recovery_.atlas;
  }
  const pheap::GcStats& gc_stats() const { return recovery_.gc; }

  /// Registers all persistent types used by any map variant.
  static void RegisterAllTypes(pheap::TypeRegistry* registry);

  /// Marks an orderly shutdown; destroying the session without calling
  /// this is indistinguishable from a crash. Fatal on attached sessions
  /// (the clean flag belongs to the domain owner) — use CloseDetach.
  void CloseClean();

  /// Orderly leave of an attached (Config::attach) session: unregisters
  /// nothing persistent beyond freeing this process's Atlas slots and
  /// trace rings (via the runtimes' teardown), and deliberately does
  /// NOT mark a clean shutdown. Also safe on owned sessions as a
  /// "simulate crash but free volatile state" close.
  void CloseDetach();

  /// True when this session attached (Config::attach).
  bool attached() const { return config_.attach; }

  /// True when this session armed TSPRace (TSP_RACE=1 at Init).
  bool race_detector_armed() const { return race_detector_armed_; }

 private:
  /// Persistent session root: tags the variant and shard count, points
  /// at the map.
  struct SessionRoot {
    static constexpr std::uint32_t kPersistentTypeId = 0x53455353;  // "SESS"
    std::uint32_t variant_tag;
    /// Shard count recorded at creation (all shards agree).
    std::uint32_t shard_count;
    void* map_root;
  };

  explicit MapSession(Config config) : config_(std::move(config)) {}

  Status Init();
  /// Locates/creates shard `i`'s session root, attaches its runtime,
  /// and returns its map.
  StatusOr<std::unique_ptr<maps::Map>> InitShard(int shard);
  /// Disables a session-armed TSPRace, saving the lock-order graph
  /// sidecar first when TSP_RACE_GRAPH names a path.
  void DisarmRaceDetector();

  Config config_;
  std::vector<std::unique_ptr<pheap::PersistentHeap>> heaps_;
  std::vector<std::unique_ptr<atlas::AtlasRuntime>> runtimes_;
  /// Shared epoch domains (sharded skip list: one per heap). Declared
  /// before the maps so reverse-order member destruction tears the maps
  /// down first, then the epoch domains, then (further up) the heaps
  /// the deleters free into.
  std::vector<std::unique_ptr<lockfree::EpochManager>> lf_epochs_;
  std::vector<std::unique_ptr<lockfree::SkipListMap>> skiplists_;
  std::vector<std::unique_ptr<lockfree::LockFreeHashMap>> lf_hashmaps_;
  std::unique_ptr<maps::Map> map_;
  bool recovered_ = false;
  bool race_detector_armed_ = false;
  atlas::FullRecoveryResult recovery_;
};

}  // namespace tsp::workload

#endif  // TSP_WORKLOAD_MAP_SESSION_H_
