#include "pheap/heap.h"

#include <utility>

#include "obs/metrics.h"

namespace tsp::pheap {

PersistentHeap::PersistentHeap(std::unique_ptr<MappedRegion> region)
    : region_(std::move(region)), allocator_(region_.get()) {
#ifndef TSP_OBS_DISABLED
  // Pull source: folds the allocator's per-thread stats into registry
  // snapshots without adding shared counters to the allocation fast path.
  metrics_source_id_ = obs::DefaultRegistry().RegisterSource(
      [this](obs::SnapshotBuilder* builder) {
        const AllocatorStats stats = allocator_.GetStats();
        builder->AddCounter("alloc.magazine_allocs", stats.magazine_allocs);
        builder->AddCounter("alloc.magazine_frees", stats.magazine_frees);
        builder->AddCounter("alloc.shared_allocs", stats.shared_allocs);
        builder->AddCounter("alloc.shared_frees", stats.shared_frees);
        builder->AddCounter("alloc.refill_batches", stats.refill_batches);
        builder->AddCounter("alloc.carve_batches", stats.carve_batches);
        builder->AddCounter("alloc.drain_batches", stats.drain_batches);
        builder->AddCounter("alloc.magazine_discards",
                            stats.magazine_discards);
        builder->AddCounter("alloc.batch_pop_retries",
                            stats.batch_pop_retries);
      });
#endif
}

PersistentHeap::~PersistentHeap() {
#ifndef TSP_OBS_DISABLED
  if (metrics_source_id_ != 0) {
    obs::DefaultRegistry().UnregisterSource(metrics_source_id_);
  }
#endif
}

StatusOr<std::unique_ptr<PersistentHeap>> PersistentHeap::Wrap(
    std::unique_ptr<MappedRegion> region) {
  std::unique_ptr<PersistentHeap> heap(new PersistentHeap(std::move(region)));
  if (!heap->region_->read_only()) {
    obs::Recorder::AttachOptions options;
    options.generation = heap->region_->header()->generation;
    // Never format over a crashed heap's runtime area: its trace rings
    // are evidence, and an area of another format is refused rather
    // than read or overwritten. Never format under an attach either —
    // live peers may be writing the rings this would zero.
    options.allow_format =
        !heap->needs_recovery() && !heap->region_->attached();
    // Attached heaps share the rings with live peer processes: claims
    // are harvested per-owner by liveness, never mass-cleared.
    options.shared = heap->region_->attached();
    TSP_ASSIGN_OR_RETURN(
        heap->recorder_,
        obs::Recorder::Attach(heap->runtime_area(),
                              heap->runtime_area_size(), options));
    heap->allocator_.set_recorder(heap->recorder_.get());
  }
  return heap;
}

StatusOr<std::unique_ptr<PersistentHeap>> PersistentHeap::Create(
    const std::string& path, const RegionOptions& options) {
  TSP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                       MappedRegion::Create(path, options));
  return Wrap(std::move(region));
}

StatusOr<std::unique_ptr<PersistentHeap>> PersistentHeap::Open(
    const std::string& path, std::shared_ptr<RegionBackend> backend) {
  TSP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                       MappedRegion::Open(path, std::move(backend)));
  return Wrap(std::move(region));
}

StatusOr<std::unique_ptr<PersistentHeap>> PersistentHeap::Attach(
    const std::string& path, std::shared_ptr<RegionBackend> backend) {
  TSP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                       MappedRegion::Attach(path, std::move(backend)));
  return Wrap(std::move(region));
}

StatusOr<std::unique_ptr<PersistentHeap>> PersistentHeap::OpenReadOnly(
    const std::string& path, std::shared_ptr<RegionBackend> backend) {
  TSP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                       MappedRegion::OpenReadOnly(path, std::move(backend)));
  return Wrap(std::move(region));
}

StatusOr<std::unique_ptr<PersistentHeap>> PersistentHeap::OpenOrCreate(
    const std::string& path, const RegionOptions& options) {
  TSP_ASSIGN_OR_RETURN(std::unique_ptr<MappedRegion> region,
                       MappedRegion::OpenOrCreate(path, options));
  return Wrap(std::move(region));
}

}  // namespace tsp::pheap
