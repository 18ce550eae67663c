// Copyright 2026 The TSP Authors.
// MapSession: one-stop lifecycle for the paper's map experiments.
//
// A session is a PersistenceDomain plus a map. The domain opens (or
// creates) the heap, runs the recovery pipeline when the previous
// session crashed (Atlas rollback → mark-sweep GC), and attaches an
// Atlas runtime in the mode its plan prescribes; the variant's row
// (MapVariantRow, below) supplies that plan and opens the map, which
// the session serves through the common Map interface. Used by the
// fault-injection harness, the Table-1 benchmark, tests and examples.
//
// With Config::shards > 1 the domain opens N shard heaps (each with
// its own Atlas runtime and undo logs, each in its own address slot)
// and recovers them shard by shard; the session serves a
// maps::ShardedMap that routes operations by key hash. The workload and
// the Eq. (1)/(2) invariant checker work through the Map interface, so
// they apply unchanged.

#ifndef TSP_WORKLOAD_MAP_SESSION_H_
#define TSP_WORKLOAD_MAP_SESSION_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/race_detector.h"
#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "common/status.h"
#include "core/tsp_planner.h"
#include "domain/persistence_domain.h"
#include "maps/map_interface.h"
#include "maps/mutex_hashmap.h"
#include "pheap/backend.h"
#include "pheap/heap.h"
#include "pheap/type_registry.h"

namespace tsp::workload {

/// The experimental map variants (Table 1's four, plus two more
/// non-blocking §4.1 implementations), one MapVariantRow each. The
/// values are persistent: a heap's session root records its variant's.
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
    std::size_t runtime_area_size = 32 * 1024 * 1024;
    maps::MutexHashMap::Options hash_options;
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
    /// Cooperative multi-process join (PersistenceDomain::Attach) to a
    /// domain whose heaps, session roots and map roots already exist;
    /// close it with CloseDetach. Variants whose plan has no Atlas mode
    /// fail InvalidArgument (lock-free epochs are per-process state;
    /// mutex-native has no robust lock table), and a mutex map with
    /// more lock stripes than the 256 robust lock words (bucket_count >
    /// 256 * buckets_per_lock) fails FailedPrecondition.
    bool attach = false;
  };

  /// Opens (creating if absent) the heap(s) at config.path, runs
  /// recovery if the previous session crashed, and attaches the map.
  static StatusOr<std::unique_ptr<MapSession>> OpenOrCreate(
      const Config& config);

  /// The backing heap paths OpenOrCreate uses (index-aligned with shard
  /// numbers): PersistenceDomain::ShardPaths. Useful for cleanup and
  /// offline inspection.
  static std::vector<std::string> ShardPaths(const Config& config);

  /// What a heap's session root records, for offline readers.
  struct RootRecord {
    MapVariant variant;
    std::uint32_t shard_count;
    /// The variant's persistent map root; null before the first open
    /// created it.
    const void* map_root;
  };
  /// The record of `heap`'s session root; nullopt when its root is not
  /// one.
  static std::optional<RootRecord> ReadRoot(const pheap::PersistentHeap& heap);

  ~MapSession();

  MapSession(const MapSession&) = delete;
  MapSession& operator=(const MapSession&) = delete;

  maps::Map* map() { return map_.get(); }
  const maps::Map* map() const { return map_.get(); }
  int shard_count() const { return domain_->shard_count(); }
  pheap::PersistentHeap* heap() { return domain_->heap(); }
  pheap::PersistentHeap* heap(int shard) { return domain_->heap(shard); }
  /// Null when the variant's plan has no Atlas mode.
  atlas::AtlasRuntime* runtime() { return domain_->runtime(); }
  atlas::AtlasRuntime* runtime(int shard) { return domain_->runtime(shard); }

  /// True if this open performed crash recovery (on any shard).
  bool recovered() const { return domain_->recovered(); }
  /// Shard-summed recovery statistics.
  const atlas::RecoveryStats& recovery_stats() const {
    return domain_->recovery().atlas;
  }
  const pheap::GcStats& gc_stats() const { return domain_->recovery().gc; }

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

  /// True when this session armed TSPRace (TSP_RACE=1 at Init).
  bool race_detector_armed() const { return race_detector_armed_; }

  /// Every shard's arena, named heap0, heap1, ...: what TSPRace arms
  /// over.
  std::vector<analysis::ArenaInfo> RaceArenas();

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
  /// Locates or creates shard `shard`'s session root, checks it against
  /// the config, and opens its map through the variant's row.
  StatusOr<std::unique_ptr<maps::Map>> OpenShard(int shard);
  /// Disables a session-armed TSPRace, saving the lock-order graph
  /// sidecar first when TSP_RACE_GRAPH names a path.
  void DisarmRaceDetector();

  Config config_;
  // Teardown runs in reverse declaration order: the map first (the
  // lock-free maps free their epoch domains into the heaps after their
  // structures), then the domain (runtimes, then heaps).
  std::unique_ptr<domain::PersistenceDomain> domain_;
  std::unique_ptr<maps::Map> map_;
  bool race_detector_armed_ = false;
};

/// One row per map variant (map_variants.cc holds the table). A row
/// names its variant, states the failures its domain must survive on
/// what hardware (the §3 planner derives the Atlas mode from them), and
/// opens its map on one shard. Adding or removing a variant touches its
/// MapVariant enumerator and its row, nothing else.
struct MapVariantRow {
  MapVariant variant;
  /// Stable name (bench flags, test names, JSON): MapVariantName.
  const char* name;
  /// Table 1 column label.
  const char* label;
  /// The plan the variant's PersistenceDomain opens with.
  Requirements requirements;
  HardwareProfile hardware;
  /// Opens one shard's map: creates the persistent map root in
  /// `*map_root` when that is null, else attaches to the root there.
  /// `runtime` is the shard's Atlas runtime, null when the plan has no
  /// Atlas mode.
  StatusOr<std::unique_ptr<maps::Map>> (*open)(
      const MapSession::Config& config, pheap::PersistentHeap* heap,
      atlas::AtlasRuntime* runtime, void** map_root);

  PersistencePlan plan() const {
    return PlanPersistence(requirements, hardware);
  }
};

/// Every row, in Table 1's column order.
std::span<const MapVariantRow> MapVariantRows();

/// The row of `variant`; null for a value no row has (a tag read from
/// a heap written by another build).
const MapVariantRow* FindMapVariantRow(MapVariant variant);

}  // namespace tsp::workload

#endif  // TSP_WORKLOAD_MAP_SESSION_H_
