#include "workload/map_session.h"

#include <cstdlib>

#include "common/logging.h"
#include "lockfree/hashmap.h"
#include "lockfree/skiplist.h"
#include "maps/sharded_map.h"

namespace tsp::workload {

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
  domain::PersistenceDomain::Options options;
  options.path = config.path;
  options.shards = config.shards;
  return domain::PersistenceDomain::ShardPaths(options);
}

std::optional<MapSession::RootRecord> MapSession::ReadRoot(
    const pheap::PersistentHeap& heap) {
  const auto* root = heap.root<const SessionRoot>();
  if (root == nullptr || !heap.region()->Contains(root) ||
      pheap::Allocator::HeaderOf(root)->type_id !=
          SessionRoot::kPersistentTypeId) {
    return std::nullopt;
  }
  return RootRecord{static_cast<MapVariant>(root->variant_tag),
                    root->shard_count, root->map_root};
}

StatusOr<std::unique_ptr<MapSession>> MapSession::OpenOrCreate(
    const Config& config) {
  auto session = std::unique_ptr<MapSession>(new MapSession(config));
  TSP_RETURN_IF_ERROR(session->Init());
  return session;
}

Status MapSession::Init() {
  const MapVariantRow* row = FindMapVariantRow(config_.variant);
  if (row == nullptr) return Status::InvalidArgument("unknown map variant");
  pheap::TypeRegistry registry;
  RegisterAllTypes(&registry);
  domain::PersistenceDomain::Options options;
  options.path = config_.path;
  options.requirements = row->requirements;
  options.hardware = row->hardware;
  options.region.size = config_.heap_size;
  options.region.runtime_area_size = config_.runtime_area_size;
  options.region.backend = config_.backend;
  options.shards = config_.shards;
  options.seq_block_size = config_.seq_block_size;
  TSP_ASSIGN_OR_RETURN(
      domain_,
      config_.attach ? domain::PersistenceDomain::Attach(options, &registry)
                     : domain::PersistenceDomain::Open(options, &registry));

  std::vector<std::unique_ptr<maps::Map>> shard_maps;
  for (int i = 0; i < shard_count(); ++i) {
    TSP_ASSIGN_OR_RETURN(std::unique_ptr<maps::Map> shard_map, OpenShard(i));
    shard_maps.push_back(std::move(shard_map));
  }
  map_ = shard_maps.size() == 1
             ? std::move(shard_maps.front())
             : std::make_unique<maps::ShardedMap>(std::move(shard_maps));

  // TSP_RACE=1: arm TSPRace over every shard arena. Arming happens
  // last — after recovery (rollback is pre-session history) and after
  // the maps registered their non-blocking ranges.
  if (analysis::RaceDetector::enabled_by_env() &&
      !analysis::RaceDetector::active()) {
    const Status status = analysis::RaceDetector::Enable(RaceArenas());
    if (status.ok()) {
      race_detector_armed_ = true;
    } else {
      TSP_LOG(WARNING) << "TSP_RACE set but TSPRace did not arm: "
                       << status.ToString();
    }
  }
  return Status::OK();
}

std::vector<analysis::ArenaInfo> MapSession::RaceArenas() {
  std::vector<analysis::ArenaInfo> arenas;
  for (int i = 0; i < shard_count(); ++i) {
    const pheap::MappedRegion* region = heap(i)->region();
    arenas.push_back({region->base(), region->size(),
                      region->header()->arena_offset,
                      region->header()->arena_size,
                      "heap" + std::to_string(i)});
  }
  return arenas;
}

StatusOr<std::unique_ptr<maps::Map>> MapSession::OpenShard(int shard) {
  pheap::PersistentHeap* shard_heap = heap(shard);
  const std::string where = " in shard " + std::to_string(shard);

  // Attachers only locate roots: creating them concurrently with live
  // peers would race, and an absent root means the caller attached
  // before the owner built the domain.
  auto* root = shard_heap->root<SessionRoot>();
  if (root == nullptr && config_.attach) {
    return Status::FailedPrecondition(
        "attach found no session root" + where +
        "; create the domain with a non-attach session first");
  }
  if (root == nullptr) {
    root = shard_heap->New<SessionRoot>();
    if (root == nullptr) {
      return Status::ResourceExhausted("heap too small for session root");
    }
    root->variant_tag = static_cast<std::uint32_t>(config_.variant);
    root->shard_count = static_cast<std::uint32_t>(config_.shards);
    root->map_root = nullptr;
    shard_heap->set_root(root);
  } else if (root->variant_tag !=
             static_cast<std::uint32_t>(config_.variant)) {
    return Status::FailedPrecondition(
        std::string("heap holds a different map variant: ") +
        MapVariantName(static_cast<MapVariant>(root->variant_tag)));
  } else if (root->shard_count != static_cast<std::uint32_t>(config_.shards)) {
    return Status::FailedPrecondition(
        "heap was created with " + std::to_string(root->shard_count) +
        " shard(s) but reopened with " + std::to_string(config_.shards) +
        "; resharding persistent data is not supported");
  }
  if (root->map_root == nullptr && config_.attach) {
    return Status::FailedPrecondition("attach found no map root" + where);
  }
  return FindMapVariantRow(config_.variant)
      ->open(config_, shard_heap, runtime(shard), &root->map_root);
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
  domain_->CloseClean();
}

void MapSession::CloseDetach() {
  DisarmRaceDetector();
  map_.reset();
  // An attached domain runs a last stability pass; either way the
  // runtimes go down and the heaps unmap without touching the
  // clean-shutdown flag, which belongs to the domain owner.
  domain_->CloseDetach();
}

MapSession::~MapSession() { DisarmRaceDetector(); }

}  // namespace tsp::workload
