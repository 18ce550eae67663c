#include "domain/persistence_domain.h"

#include <chrono>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tsp::domain {

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
  if (registry == nullptr) {
    return Status::InvalidArgument("a type registry is required");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (options.shards > 1 && options.region.base_address != 0) {
    return Status::InvalidArgument(
        "sharded domains place every shard in its own address slot; "
        "leave region.base_address at 0");
  }
  auto domain = std::unique_ptr<PersistenceDomain>(new PersistenceDomain());
  domain->registry_ = registry;
  domain->plan_ = PlanPersistence(options.requirements, options.hardware);
  if (!domain->plan_.feasible) {
    return Status::FailedPrecondition(
        "no persistence plan satisfies the requirements on this hardware");
  }

  const std::vector<std::string> paths = ShardPaths(options);
  bool any_needs_recovery = false;
  for (const std::string& path : paths) {
    TSP_ASSIGN_OR_RETURN(
        std::unique_ptr<pheap::PersistentHeap> heap,
        pheap::PersistentHeap::OpenOrCreate(path, options.region));
    any_needs_recovery |= heap->needs_recovery();
    domain->heaps_.push_back(std::move(heap));
  }

  TSP_COUNTER_INC("domain.opens");
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
    for (const auto& heap : domain->heaps_) {
      auto runtime =
          std::make_unique<atlas::AtlasRuntime>(heap.get(), policy);
      TSP_RETURN_IF_ERROR(runtime->Initialize());
      domain->runtimes_.push_back(std::move(runtime));
    }
  }
  return domain;
}

StatusOr<std::unique_ptr<PersistenceDomain>> PersistenceDomain::Attach(
    const Options& options, const pheap::TypeRegistry* registry) {
  if (registry == nullptr) {
    return Status::InvalidArgument("a type registry is required");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  auto domain = std::unique_ptr<PersistenceDomain>(new PersistenceDomain());
  domain->registry_ = registry;
  domain->attached_ = true;
  domain->plan_ = PlanPersistence(options.requirements, options.hardware);
  if (!domain->plan_.feasible) {
    return Status::FailedPrecondition(
        "no persistence plan satisfies the requirements on this hardware");
  }
  if (domain->plan_.atlas_mode == PersistenceMode::kNone) {
    return Status::FailedPrecondition(
        "multi-process attach needs an Atlas mode: the per-slot claimant "
        "identities are the dead-peer detection substrate");
  }

  for (const std::string& path : ShardPaths(options)) {
    TSP_ASSIGN_OR_RETURN(
        std::unique_ptr<pheap::PersistentHeap> heap,
        pheap::PersistentHeap::Attach(path, options.region.backend));
    domain->heaps_.push_back(std::move(heap));
  }
  TSP_COUNTER_INC("domain.attaches");

  const PersistencePolicy policy =
      domain->plan_.atlas_mode == PersistenceMode::kLogOnly
          ? PersistencePolicy::TspLogOnly()
          : PersistencePolicy::SyncFlush();
  for (const auto& heap : domain->heaps_) {
    auto runtime = std::make_unique<atlas::AtlasRuntime>(heap.get(), policy);
    TSP_RETURN_IF_ERROR(runtime->Attach());
    domain->runtimes_.push_back(std::move(runtime));
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
  runtimes_.clear();
  for (const auto& heap : heaps_) {
    if (heap != nullptr) heap->CloseClean();
  }
}

void PersistenceDomain::CloseDetach() {
  runtimes_.clear();
  heaps_.clear();
}

PersistenceDomain::~PersistenceDomain() = default;

}  // namespace tsp::domain
