#include "domain/persistence_domain.h"

#include <chrono>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tsp::domain {
namespace {

/// Whether `backend` holds a store at `path`, probed without creating
/// or mapping anything.
StatusOr<bool> StoreExists(pheap::RegionBackend* backend,
                           const std::string& path) {
  unsigned char first_byte = 0;
  std::uint64_t store_size = 0;
  const Status peeked = backend->PeekHeader(path, &first_byte, 1, &store_size);
  if (peeked.code() == StatusCode::kNotFound) return false;
  TSP_RETURN_IF_ERROR(peeked);
  return true;
}

/// Refuses a shard set that disagrees with the disk: shard 0 exists but
/// a requested shard does not, or the shard after the last requested
/// one exists. Opening such a set would create full-size heaps for the
/// missing shards, or leave shards out, and route keys over the wrong
/// count. Checked before any file is created.
Status CheckShardSetMatchesDisk(const PersistenceDomain::Options& options,
                                const std::vector<std::string>& paths) {
  const std::shared_ptr<pheap::RegionBackend> backend =
      options.region.backend != nullptr ? options.region.backend
                                        : pheap::DefaultBackend();
  const std::string count = std::to_string(options.shards);
  TSP_ASSIGN_OR_RETURN(const bool first_exists,
                       StoreExists(backend.get(), paths[0]));
  for (std::size_t i = 1; first_exists && i < paths.size(); ++i) {
    TSP_ASSIGN_OR_RETURN(const bool exists,
                         StoreExists(backend.get(), paths[i]));
    if (!exists) {
      return Status::FailedPrecondition(
          paths[0] + " exists but its shard " + std::to_string(i) + " (" +
          paths[i] + ") does not: the domain on disk has fewer than " +
          count + " shards; refusing to create the missing ones");
    }
  }
  const std::string next = options.path + ".shard" + count;
  TSP_ASSIGN_OR_RETURN(const bool next_exists,
                       StoreExists(backend.get(), next));
  if (next_exists) {
    return Status::FailedPrecondition(
        next + " exists: the domain on disk has more than " + count +
        " shards; refusing to open a subset of them");
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> PersistenceDomain::ShardPaths(
    const Options& options) {
  if (options.shards <= 1) return {options.path};
  std::vector<std::string> paths;
  paths.reserve(options.shards);
  paths.push_back(options.path);
  for (int i = 1; i < options.shards; ++i) {
    paths.push_back(options.path + ".shard" + std::to_string(i));
  }
  return paths;
}

StatusOr<std::unique_ptr<PersistenceDomain>> PersistenceDomain::Open(
    const Options& options, const pheap::TypeRegistry* registry) {
  return Start(options, registry, /*attach=*/false);
}

StatusOr<std::unique_ptr<PersistenceDomain>> PersistenceDomain::Attach(
    const Options& options, const pheap::TypeRegistry* registry) {
  return Start(options, registry, /*attach=*/true);
}

Status PersistenceDomain::CheckAttachable(const PersistencePlan& plan) {
  if (plan.atlas_mode == PersistenceMode::kNone) {
    return Status::InvalidArgument(
        "multi-process attach needs an Atlas mode, and this plan has none: "
        "peers detect a dead process by its Atlas slot identity and share "
        "locks through Atlas robust lock words");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<PersistenceDomain>> PersistenceDomain::Start(
    const Options& options, const pheap::TypeRegistry* registry,
    bool attach) {
  if (registry == nullptr) {
    return Status::InvalidArgument("a type registry is required");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  auto domain = std::unique_ptr<PersistenceDomain>(new PersistenceDomain());
  domain->attached_ = attach;
  domain->plan_ = PlanPersistence(options.requirements, options.hardware);
  if (!domain->plan_.feasible) {
    return Status::FailedPrecondition(
        "no persistence plan satisfies the requirements on this hardware");
  }
  if (attach) TSP_RETURN_IF_ERROR(CheckAttachable(domain->plan_));

  // An attacher joins a live domain: it never creates a heap, and no
  // wholesale recovery runs (its heaps never need one; dead peers are
  // harvested per slot by AtlasRuntime::Attach below).
  const std::vector<std::string> paths = ShardPaths(options);
  if (!attach) TSP_RETURN_IF_ERROR(CheckShardSetMatchesDisk(options, paths));
  bool any_needs_recovery = false;
  for (const std::string& path : paths) {
    TSP_ASSIGN_OR_RETURN(
        std::unique_ptr<pheap::PersistentHeap> heap,
        attach ? pheap::PersistentHeap::Attach(path, options.region.backend)
               : pheap::PersistentHeap::OpenOrCreate(path, options.region));
    any_needs_recovery |= heap->needs_recovery();
    domain->heaps_.push_back(std::move(heap));
  }

  if (attach) {
    TSP_COUNTER_INC("domain.attaches");
  } else {
    TSP_COUNTER_INC("domain.opens");
  }
  if (any_needs_recovery) {
    TSP_COUNTER_INC("domain.recoveries");
    [[maybe_unused]] const auto recovery_start =
        std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < domain->heaps_.size(); ++i) {
      auto shard = atlas::RecoverHeap(domain->heaps_[i].get(), *registry);
      if (!shard.ok()) {
        return Status(shard.status().code(),
                      "recovery of shard " + std::to_string(i) + " (" +
                          paths[i] + ") failed: " +
                          shard.status().message());
      }
      domain->shard_recoveries_.push_back(*shard);
      atlas::AccumulateRecovery(*shard, &domain->recovery_);
    }
    TSP_HISTOGRAM_OBSERVE(
        "domain.recovery_us",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - recovery_start)
                .count()));
    domain->recovered_ = true;
  }

  if (domain->plan_.atlas_mode != PersistenceMode::kNone) {
    const PersistencePolicy policy =
        domain->plan_.atlas_mode == PersistenceMode::kLogOnly
            ? PersistencePolicy::TspLogOnly()
            : PersistencePolicy::SyncFlush();
    atlas::AtlasRuntime::Options runtime_options;
    runtime_options.seq_block_size = options.seq_block_size;
    for (const auto& heap : domain->heaps_) {
      auto runtime = std::make_unique<atlas::AtlasRuntime>(
          heap.get(), policy, runtime_options);
      TSP_RETURN_IF_ERROR(attach ? runtime->Attach() : runtime->Initialize());
      domain->runtimes_.push_back(std::move(runtime));
    }
  }
  return domain;
}

Status PersistenceDomain::Commit() {
  if (plan_.runtime_action == RuntimeAction::kSyncMsync) {
    for (const auto& heap : heaps_) {
      TSP_RETURN_IF_ERROR(heap->SyncToBacking());
    }
  }
  return Status::OK();  // TSP or per-entry flushing: nothing to do here
}

void PersistenceDomain::CloseClean() {
  TSP_CHECK(!attached_)
      << "CloseClean on an attached domain; use CloseDetach";
  // One last pass per shard applies every deferred free that is due.
  // Destroying a runtime runs none, as a crash would not.
  for (const auto& runtime : runtimes_) runtime->StabilizeNow();
  runtimes_.clear();
  for (const auto& heap : heaps_) {
    if (heap != nullptr) heap->CloseClean();
  }
}

void PersistenceDomain::CloseDetach() {
  if (attached_) {
    for (const auto& runtime : runtimes_) runtime->StabilizeNow();
  }
  runtimes_.clear();
  heaps_.clear();
}

PersistenceDomain::~PersistenceDomain() = default;

}  // namespace tsp::domain
