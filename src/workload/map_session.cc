#include "workload/map_session.h"

#include <cstdlib>

#include "analysis/race_detector.h"
#include "common/logging.h"
#include "maps/sharded_map.h"

namespace tsp::workload {

const char* MapVariantName(MapVariant variant) {
  switch (variant) {
    case MapVariant::kMutexNative:
      return "mutex-native";
    case MapVariant::kMutexLogOnly:
      return "mutex-atlas-log-only";
    case MapVariant::kMutexLogFlush:
      return "mutex-atlas-log+flush";
    case MapVariant::kLockFreeSkipList:
      return "lockfree-skiplist";
    case MapVariant::kLockFreeSkipListSharded:
      return "lockfree-skiplist-sharded";
    case MapVariant::kLockFreeHashMap:
      return "lockfree-hashmap";
  }
  return "unknown";
}

void MapSession::RegisterAllTypes(pheap::TypeRegistry* registry) {
  registry->Register(pheap::TypeInfo{
      SessionRoot::kPersistentTypeId, "MapSessionRoot",
      [](const void* payload, const pheap::PointerVisitor& visit) {
        visit(static_cast<const SessionRoot*>(payload)->map_root);
      }});
  maps::MutexHashMap::RegisterTypes(registry);
  lockfree::SkipListMap::RegisterTypes(registry);
  lockfree::LockFreeHashMap::RegisterTypes(registry);
}

std::vector<std::string> MapSession::ShardPaths(const Config& config) {
  if (config.shards <= 1) return {config.path};
  std::vector<std::string> paths;
  paths.reserve(config.shards);
  paths.push_back(config.path);
  for (int i = 1; i < config.shards; ++i) {
    paths.push_back(config.path + ".shard" + std::to_string(i));
  }
  return paths;
}

StatusOr<std::unique_ptr<MapSession>> MapSession::OpenOrCreate(
    const Config& config) {
  auto session = std::unique_ptr<MapSession>(new MapSession(config));
  TSP_RETURN_IF_ERROR(session->Init());
  return session;
}

Status MapSession::Init() {
  if (config_.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (config_.attach && (config_.variant == MapVariant::kLockFreeSkipList ||
                         config_.variant ==
                             MapVariant::kLockFreeSkipListSharded ||
                         config_.variant == MapVariant::kLockFreeHashMap)) {
    // The lock-free facades keep volatile per-process state that the
    // structures' correctness depends on being shared: the epoch
    // reclamation domain (a second process's EpochManager would free
    // nodes a peer is traversing) and the skip list descent hint. A
    // cooperative multi-process join is therefore unsound for these
    // variants; only the mutex+Atlas variants support attach.
    return Status::InvalidArgument(
        std::string("variant ") + MapVariantName(config_.variant) +
        " does not support attach: lock-free epoch reclamation is "
        "per-process; use the mutex+Atlas variants for multi-process "
        "domains");
  }
  if (config_.attach && config_.variant == MapVariant::kMutexNative) {
    // Without an Atlas runtime there is no robust lock table, so the
    // native map's locks are process-local and exclude no peer.
    return Status::InvalidArgument(
        "variant mutex-native does not support attach: it has no Atlas "
        "runtime, hence no robust lock table to share its locks across "
        "processes");
  }
  if (config_.shards > 1 && config_.base_address != 0) {
    return Status::InvalidArgument(
        "sharded sessions place every shard in its own address slot; "
        "leave base_address at 0");
  }

  pheap::RegionOptions region_options;
  region_options.size = config_.heap_size;
  region_options.base_address = config_.base_address;
  region_options.runtime_area_size = config_.runtime_area_size;
  region_options.backend = config_.backend;

  bool any_needs_recovery = false;
  for (const std::string& path : ShardPaths(config_)) {
    std::unique_ptr<pheap::PersistentHeap> heap;
    if (config_.attach) {
      // Cooperative join: the domain must exist; no crash/clean
      // bookkeeping is touched and no wholesale recovery ever runs
      // (dead peers are harvested per-slot by AtlasRuntime::Attach).
      TSP_ASSIGN_OR_RETURN(
          heap, pheap::PersistentHeap::Attach(path, config_.backend));
    } else {
      TSP_ASSIGN_OR_RETURN(
          heap, pheap::PersistentHeap::OpenOrCreate(path, region_options));
    }
    any_needs_recovery |= heap->needs_recovery();
    heaps_.push_back(std::move(heap));
  }

  if (any_needs_recovery) {
    pheap::TypeRegistry registry;
    RegisterAllTypes(&registry);
    for (std::size_t i = 0; i < heaps_.size(); ++i) {
      auto shard = atlas::RecoverHeap(heaps_[i].get(), registry);
      if (!shard.ok()) {
        return Status(shard.status().code(),
                      "recovery of shard " + std::to_string(i) +
                          " failed: " + shard.status().message());
      }
      atlas::AccumulateRecovery(*shard, &recovery_);
    }
    recovered_ = true;
  }

  if (config_.shards == 1) {
    TSP_ASSIGN_OR_RETURN(map_, InitShard(0));
  } else {
    std::vector<std::unique_ptr<maps::Map>> shard_maps;
    shard_maps.reserve(heaps_.size());
    for (int i = 0; i < static_cast<int>(heaps_.size()); ++i) {
      TSP_ASSIGN_OR_RETURN(std::unique_ptr<maps::Map> shard_map,
                           InitShard(i));
      shard_maps.push_back(std::move(shard_map));
    }
    map_ = std::make_unique<maps::ShardedMap>(std::move(shard_maps));
  }

  // TSP_RACE=1: arm TSPRace over every shard arena. Arming happens
  // last — after recovery (rollback is pre-session history) and after
  // the maps registered their non-blocking ranges.
  if (analysis::RaceDetector::enabled_by_env() &&
      !analysis::RaceDetector::active()) {
    std::vector<analysis::ArenaInfo> arenas;
    for (std::size_t i = 0; i < heaps_.size(); ++i) {
      const pheap::MappedRegion* region = heaps_[i]->region();
      analysis::ArenaInfo arena;
      arena.base = region->base();
      arena.size = region->size();
      arena.arena_offset = region->header()->arena_offset;
      arena.arena_size = region->header()->arena_size;
      arena.name = "heap" + std::to_string(i);
      arenas.push_back(std::move(arena));
    }
    const Status status = analysis::RaceDetector::Enable(arenas);
    if (status.ok()) {
      race_detector_armed_ = true;
    } else {
      TSP_LOG(WARNING) << "TSP_RACE set but TSPRace did not arm: "
                       << status.ToString();
    }
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<maps::Map>> MapSession::InitShard(int shard) {
  pheap::PersistentHeap* heap = heaps_[shard].get();

  // Locate or create the shard's session root. Attachers only locate:
  // creating roots concurrently with live peers would race, and an
  // absent root means the caller attached before the owner built the
  // domain.
  auto* root = heap->root<SessionRoot>();
  if (root == nullptr && config_.attach) {
    return Status::FailedPrecondition(
        "attach found no session root in shard " + std::to_string(shard) +
        "; create the domain with a non-attach session first");
  }
  if (root == nullptr) {
    root = heap->New<SessionRoot>();
    if (root == nullptr) {
      return Status::ResourceExhausted("heap too small for session root");
    }
    root->variant_tag = static_cast<std::uint32_t>(config_.variant);
    root->shard_count = static_cast<std::uint32_t>(config_.shards);
    root->map_root = nullptr;
    heap->set_root(root);
  } else {
    if (root->variant_tag != static_cast<std::uint32_t>(config_.variant)) {
      return Status::FailedPrecondition(
          std::string("heap holds a different map variant: ") +
          MapVariantName(static_cast<MapVariant>(root->variant_tag)));
    }
    if (root->shard_count != static_cast<std::uint32_t>(config_.shards)) {
      return Status::FailedPrecondition(
          "heap was created with " + std::to_string(root->shard_count) +
          " shard(s) but reopened with " + std::to_string(config_.shards) +
          "; resharding persistent data is not supported");
    }
  }

  // Attach the Atlas runtime for the logged variants.
  atlas::AtlasRuntime* runtime = nullptr;
  if (config_.variant == MapVariant::kMutexLogOnly ||
      config_.variant == MapVariant::kMutexLogFlush) {
    const PersistencePolicy policy =
        config_.variant == MapVariant::kMutexLogOnly
            ? PersistencePolicy::TspLogOnly()
            : PersistencePolicy::SyncFlush();
    atlas::AtlasRuntime::Options runtime_options;
    runtime_options.prune_interval_us = config_.prune_interval_us;
    runtime_options.seq_block_size = config_.seq_block_size;
    runtimes_.push_back(std::make_unique<atlas::AtlasRuntime>(
        heap, policy, runtime_options));
    runtime = runtimes_.back().get();
    TSP_RETURN_IF_ERROR(config_.attach ? runtime->Attach()
                                       : runtime->Initialize());
  }

  // Attach the map implementation.
  switch (config_.variant) {
    case MapVariant::kMutexNative:
    case MapVariant::kMutexLogOnly:
    case MapVariant::kMutexLogFlush: {
      auto* map_root = static_cast<maps::HashMapRoot*>(root->map_root);
      if (map_root == nullptr && config_.attach) {
        return Status::FailedPrecondition(
            "attach found no map root in shard " + std::to_string(shard));
      }
      if (map_root == nullptr) {
        map_root =
            maps::MutexHashMap::CreateRoot(heap, config_.hash_options);
        if (map_root == nullptr) {
          return Status::ResourceExhausted("heap too small for bucket array");
        }
        root->map_root = map_root;
      }
      auto map = std::make_unique<maps::MutexHashMap>(
          heap, map_root, runtime, config_.hash_options);
      // Unbound locks exclude nothing across processes, so a joiner
      // would race the owner's writes. Init() refused native attach, so
      // `runtime` is set here.
      if (config_.attach && !map->cross_process_locks()) {
        const std::uint32_t words = runtime->robust_lock_count();
        return Status::FailedPrecondition(
            "attach needs one robust lock word per map lock stripe, but "
            "shard " + std::to_string(shard) + "'s map has " +
            std::to_string(map->lock_count()) + " stripes and " +
            std::to_string(words) + " robust words; " +
            (words == 0 ? "the runtime area was too small for the robust "
                          "lock table"
                        : "raise buckets_per_lock or use fewer buckets"));
      }
      return std::unique_ptr<maps::Map>(std::move(map));
    }
    case MapVariant::kLockFreeSkipList: {
      auto* map_root = static_cast<lockfree::SkipListRoot*>(root->map_root);
      if (map_root == nullptr && config_.attach) {
        return Status::FailedPrecondition(
            "attach found no map root in shard " + std::to_string(shard));
      }
      if (map_root == nullptr) {
        map_root = lockfree::SkipListMap::CreateRoot(heap);
        if (map_root == nullptr) {
          return Status::ResourceExhausted("heap too small for skip list");
        }
        root->map_root = map_root;
      }
      skiplists_.push_back(
          std::make_unique<lockfree::SkipListMap>(heap, map_root));
      return std::unique_ptr<maps::Map>(
          std::make_unique<maps::SkipListMapAdapter>(
              skiplists_.back().get()));
    }
    case MapVariant::kLockFreeSkipListSharded: {
      auto* map_root =
          static_cast<lockfree::ShardedSkipListRoot*>(root->map_root);
      if (map_root == nullptr && config_.attach) {
        return Status::FailedPrecondition(
            "attach found no map root in shard " + std::to_string(shard));
      }
      if (map_root == nullptr) {
        map_root = lockfree::SkipListMap::CreateShardedRoot(
            heap, static_cast<std::uint32_t>(
                      config_.lockfree_shards < 1 ? 1
                                                  : config_.lockfree_shards));
        if (map_root == nullptr) {
          return Status::ResourceExhausted(
              "heap too small for sharded skip list");
        }
        root->map_root = map_root;
      }
      // One epoch domain per heap: the towers share nodes' reclamation
      // lifetime, and a thread touching several in-heap shards pays one
      // slot binding, not K.
      lf_epochs_.push_back(std::make_unique<lockfree::EpochManager>(
          [heap](void* p) { heap->Free(p); }));
      lockfree::EpochManager* epoch = lf_epochs_.back().get();
      std::vector<std::unique_ptr<maps::Map>> towers;
      towers.reserve(map_root->shard_count);
      for (std::uint32_t i = 0; i < map_root->shard_count; ++i) {
        skiplists_.push_back(std::make_unique<lockfree::SkipListMap>(
            heap, map_root->shards[i], epoch));
        towers.push_back(std::make_unique<maps::SkipListMapAdapter>(
            skiplists_.back().get()));
      }
      return std::unique_ptr<maps::Map>(
          std::make_unique<maps::ShardedMap>(std::move(towers)));
    }
    case MapVariant::kLockFreeHashMap: {
      auto* map_root =
          static_cast<lockfree::LockFreeHashRoot*>(root->map_root);
      if (map_root == nullptr && config_.attach) {
        return Status::FailedPrecondition(
            "attach found no map root in shard " + std::to_string(shard));
      }
      if (map_root == nullptr) {
        map_root = lockfree::LockFreeHashMap::CreateRoot(
            heap, config_.hash_options.bucket_count);
        if (map_root == nullptr) {
          return Status::ResourceExhausted(
              "heap too small for lock-free bucket array");
        }
        root->map_root = map_root;
      }
      lf_hashmaps_.push_back(
          std::make_unique<lockfree::LockFreeHashMap>(heap, map_root));
      return std::unique_ptr<maps::Map>(
          std::make_unique<maps::LockFreeHashMapAdapter>(
              lf_hashmaps_.back().get()));
    }
  }
  return Status::Internal("unreachable map variant");
}

void MapSession::DisarmRaceDetector() {
  if (!race_detector_armed_) return;
  race_detector_armed_ = false;
  if (const char* graph_path = std::getenv("TSP_RACE_GRAPH");
      graph_path != nullptr && graph_path[0] != '\0') {
    std::string error;
    if (!analysis::RaceDetector::SaveLockGraph(graph_path, &error)) {
      TSP_LOG(WARNING) << "TSP_RACE_GRAPH save failed: " << error;
    }
  }
  analysis::RaceDetector::Disable();
  const std::size_t errors = analysis::RaceDetector::error_count();
  if (errors != 0) {
    TSP_LOG(ERROR) << "TSPRace found " << errors
                   << " persistence-race violation(s) in this session";
  }
}

void MapSession::CloseClean() {
  TSP_CHECK(!config_.attach)
      << "CloseClean on an attached session; use CloseDetach";
  // Disarm before the maps and heaps go away: the detector's shadow
  // spans the heap mappings, and teardown stores must not be checked
  // against a dying lockset state.
  DisarmRaceDetector();
  map_.reset();
  skiplists_.clear();
  lf_hashmaps_.clear();
  lf_epochs_.clear();
  runtimes_.clear();
  for (const auto& heap : heaps_) {
    if (heap != nullptr) heap->CloseClean();
  }
}

void MapSession::CloseDetach() {
  DisarmRaceDetector();
  map_.reset();
  skiplists_.clear();
  lf_hashmaps_.clear();
  lf_epochs_.clear();
  // Runtime teardown frees this process's Atlas slots (identity cleared
  // first) and stops the pruners; the heaps then unmap without touching
  // the clean-shutdown flag, which belongs to the domain owner.
  runtimes_.clear();
  heaps_.clear();
}

MapSession::~MapSession() { DisarmRaceDetector(); }

}  // namespace tsp::workload
