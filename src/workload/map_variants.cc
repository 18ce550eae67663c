#include "workload/map_session.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "lockfree/hashmap.h"
#include "lockfree/skiplist.h"
#include "maps/mutex_hashmap.h"
#include "maps/sharded_map.h"

namespace tsp::workload {
namespace {

using MapOrError = StatusOr<std::unique_ptr<maps::Map>>;

/// maps::Map over a lock-free structure, which it owns. The structures
/// cannot be Maps themselves: their Put reports whether it inserted.
/// The towers of a sharded skip list share one epoch domain; the last
/// tower destroyed frees it, after its own structure.
template <typename Structure>
class LockFreeMap final : public maps::Map {
 public:
  template <typename Root>
  LockFreeMap(const char* name, pheap::PersistentHeap* heap, Root* root,
              std::shared_ptr<lockfree::EpochManager> shared_epoch = nullptr)
      : name_(name),
        shared_epoch_(std::move(shared_epoch)),
        structure_(heap, root, shared_epoch_.get()) {}

  void Put(std::uint64_t key, std::uint64_t value) override {
    structure_.Put(key, value);
  }
  std::optional<std::uint64_t> Get(std::uint64_t key) const override {
    return structure_.Get(key);
  }
  std::uint64_t IncrementBy(std::uint64_t key, std::uint64_t delta) override {
    return structure_.IncrementBy(key, delta);
  }
  bool Remove(std::uint64_t key) override { return structure_.Remove(key); }
  void ForEach(const std::function<void(std::uint64_t, std::uint64_t)>& fn)
      const override {
    structure_.ForEach(fn);
  }
  const char* name() const override { return name_; }
  void OnThreadExit() override {
    structure_.epoch()->UnregisterCurrentThread();
  }

 private:
  const char* name_;
  std::shared_ptr<lockfree::EpochManager> shared_epoch_;  // null: unshared
  Structure structure_;
};

/// The root in `*slot`, created there by `create` when the slot is
/// empty.
template <typename Root, typename Create>
StatusOr<Root*> RootIn(void** slot, Create create) {
  if (*slot == nullptr) *slot = create();
  if (*slot == nullptr) {
    return Status::ResourceExhausted("heap too small for the map root");
  }
  return static_cast<Root*>(*slot);
}

MapOrError OpenMutexMap(const MapSession::Config& config,
                        pheap::PersistentHeap* heap,
                        atlas::AtlasRuntime* runtime, void** map_root) {
  TSP_ASSIGN_OR_RETURN(auto* root, RootIn<maps::HashMapRoot>(map_root, [&] {
    return maps::MutexHashMap::CreateRoot(heap, config.hash_options);
  }));
  TSP_RETURN_IF_ERROR(maps::MutexHashMap::CheckRoot(root));
  auto map = std::make_unique<maps::MutexHashMap>(heap, root, runtime,
                                                  config.hash_options);
  // Unbound locks exclude nothing across processes, so a joiner would
  // race the owner's writes. Only plans with an Atlas mode attach, so
  // `runtime` is set here.
  if (config.attach && !map->cross_process_locks()) {
    const std::uint32_t words = runtime->robust_lock_count();
    return Status::FailedPrecondition(
        "attach needs one robust lock word per map lock stripe, but the "
        "map has " + std::to_string(map->lock_count()) + " stripes and " +
        std::to_string(words) + " robust words; " +
        (words == 0 ? "the runtime area was too small for the robust lock "
                      "table"
                    : "raise buckets_per_lock or use fewer buckets"));
  }
  return MapOrError(std::move(map));
}

MapOrError OpenSkipList(const MapSession::Config&,
                        pheap::PersistentHeap* heap, atlas::AtlasRuntime*,
                        void** map_root) {
  TSP_ASSIGN_OR_RETURN(
      auto* root, RootIn<lockfree::SkipListRoot>(map_root, [&] {
        return lockfree::SkipListMap::CreateRoot(heap);
      }));
  return MapOrError(std::make_unique<LockFreeMap<lockfree::SkipListMap>>(
      "lockfree-skiplist", heap, root));
}

MapOrError OpenShardedSkipList(const MapSession::Config& config,
                               pheap::PersistentHeap* heap,
                               atlas::AtlasRuntime*, void** map_root) {
  TSP_ASSIGN_OR_RETURN(
      auto* root, RootIn<lockfree::ShardedSkipListRoot>(map_root, [&] {
        return lockfree::SkipListMap::CreateShardedRoot(
            heap,
            static_cast<std::uint32_t>(std::max(1, config.lockfree_shards)));
      }));
  // One epoch domain per heap: the towers share their nodes'
  // reclamation lifetime, and a thread touching several towers pays one
  // slot binding, not K.
  auto epoch = std::make_shared<lockfree::EpochManager>(
      [heap](void* p) { heap->Free(p); });
  std::vector<std::unique_ptr<maps::Map>> towers;
  towers.reserve(root->shard_count);
  for (std::uint32_t i = 0; i < root->shard_count; ++i) {
    towers.push_back(std::make_unique<LockFreeMap<lockfree::SkipListMap>>(
        "lockfree-skiplist", heap, root->shards[i], epoch));
  }
  return MapOrError(std::make_unique<maps::ShardedMap>(std::move(towers)));
}

MapOrError OpenLockFreeHashMap(const MapSession::Config& config,
                               pheap::PersistentHeap* heap,
                               atlas::AtlasRuntime*, void** map_root) {
  TSP_ASSIGN_OR_RETURN(
      auto* root, RootIn<lockfree::LockFreeHashRoot>(map_root, [&] {
        return lockfree::LockFreeHashMap::CreateRoot(
            heap, config.hash_options.bucket_count);
      }));
  return MapOrError(std::make_unique<LockFreeMap<lockfree::LockFreeHashMap>>(
      "lockfree-hashmap", heap, root));
}

constexpr FailureSet kCrash = FailureSet::Of(FailureClass::kProcessCrash);
constexpr FailureSet kPowerOutage = FailureSet::Of(FailureClass::kPowerOutage);

}  // namespace

std::span<const MapVariantRow> MapVariantRows() {
  // Requirements are {tolerated failures, needs rollback}. Log+flush is
  // the mutex code when flushes cannot be put off: a power outage on
  // NVRAM whose caches no standby energy rescues.
  static const MapVariantRow kRows[] = {
      {MapVariant::kMutexNative, "mutex-native", "no Atlas (native)",
       {FailureSet::None(), true}, HardwareProfile::ConventionalServer(),
       &OpenMutexMap},
      {MapVariant::kMutexLogOnly, "mutex-atlas-log-only", "log only (TSP)",
       {kCrash, true}, HardwareProfile::ConventionalServer(), &OpenMutexMap},
      {MapVariant::kMutexLogFlush, "mutex-atlas-log+flush",
       "log + flush (non-TSP)", {kPowerOutage, true},
       HardwareProfile::NvramMachine(), &OpenMutexMap},
      {MapVariant::kLockFreeSkipList, "lockfree-skiplist",
       "non-blocking skip list", {kCrash, false},
       HardwareProfile::ConventionalServer(), &OpenSkipList},
      {MapVariant::kLockFreeSkipListSharded, "lockfree-skiplist-sharded",
       "nb skip list (sharded)", {kCrash, false},
       HardwareProfile::ConventionalServer(), &OpenShardedSkipList},
      {MapVariant::kLockFreeHashMap, "lockfree-hashmap", "nb hash map",
       {kCrash, false}, HardwareProfile::ConventionalServer(),
       &OpenLockFreeHashMap},
  };
  return kRows;
}

const MapVariantRow* FindMapVariantRow(MapVariant variant) {
  for (const MapVariantRow& row : MapVariantRows()) {
    if (row.variant == variant) return &row;
  }
  return nullptr;
}

const char* MapVariantName(MapVariant variant) {
  const MapVariantRow* row = FindMapVariantRow(variant);
  return row != nullptr ? row->name : "unknown";
}

}  // namespace tsp::workload
