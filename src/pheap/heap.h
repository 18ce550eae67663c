// Copyright 2026 The TSP Authors.
// PersistentHeap: the public facade over region + allocator + root +
// recovery GC. This is the "persistent heap" of the paper: application
// data lives here, is manipulated with ordinary loads and stores, and
// must be reachable from a heap-wide root (get_root/set_root).

#ifndef TSP_PHEAP_HEAP_H_
#define TSP_PHEAP_HEAP_H_

#include <concepts>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.h"
#include "obs/recorder.h"
#include "pheap/allocator.h"
#include "pheap/gc.h"
#include "pheap/region.h"
#include "pheap/sanitizer.h"
#include "pheap/type_registry.h"

namespace tsp::pheap {

/// Detects types that declare a persistent type id for GC tracing.
template <typename T>
concept HasPersistentTypeId = requires {
  { T::kPersistentTypeId } -> std::convertible_to<std::uint32_t>;
};

/// A persistent heap backed by one mapped region file.
///
/// Lifecycle:
///   * Create/Open/OpenOrCreate — map the file at its fixed address.
///   * needs_recovery() — true when the previous session did not close
///     cleanly; run the resilience runtime's rollback (if any), then
///     RunRecoveryGc().
///   * CloseClean() — marks an orderly shutdown. Simply destroying the
///     heap (or crashing) leaves the unclean flag set, which is exactly
///     what recovery keys off.
///
/// Thread safety: Alloc/Free/New are lock-free; root access is atomic.
class PersistentHeap {
 public:
  static StatusOr<std::unique_ptr<PersistentHeap>> Create(
      const std::string& path, const RegionOptions& options = {});
  /// Also refuses (kCorruption, naming both versions) a crashed heap
  /// whose flight-recorder area has another format version or a torn
  /// geometry: recovery must not run beside evidence it cannot read.
  static StatusOr<std::unique_ptr<PersistentHeap>> Open(
      const std::string& path,
      std::shared_ptr<RegionBackend> backend = nullptr);

  /// Cooperative writable join of a domain another process has open
  /// (see MappedRegion::Attach): no generation bump, no clean-shutdown
  /// consumption, needs_recovery() always false — dead peers are
  /// recovered per-slot via AtlasRuntime::Attach harvesting instead.
  /// Never CloseClean() an attached heap (fatal); just destroy it.
  static StatusOr<std::unique_ptr<PersistentHeap>> Attach(
      const std::string& path,
      std::shared_ptr<RegionBackend> backend = nullptr);

  /// Read-only attach for diagnostics (see MappedRegion::OpenReadOnly).
  /// Allocation/mutation through such a heap is undefined; use it only
  /// with const inspection APIs (CheckHeap, root traversal).
  static StatusOr<std::unique_ptr<PersistentHeap>> OpenReadOnly(
      const std::string& path,
      std::shared_ptr<RegionBackend> backend = nullptr);
  static StatusOr<std::unique_ptr<PersistentHeap>> OpenOrCreate(
      const std::string& path, const RegionOptions& options = {});

  PersistentHeap(const PersistentHeap&) = delete;
  PersistentHeap& operator=(const PersistentHeap&) = delete;

  /// True iff the previous session ended without CloseClean, so the
  /// resilience runtime should run recovery (rollback + GC).
  bool needs_recovery() const { return region_->opened_after_crash(); }

  /// Raw allocation; see Allocator::Alloc.
  void* Alloc(std::size_t size, std::uint32_t type_id = 0) {
    return allocator_.Alloc(size, type_id);
  }
  void Free(void* payload) { allocator_.Free(payload); }

  /// Allocates and constructs a T. Persistent types should be trivially
  /// destructible (their destructor never runs on crash) and declare
  /// kPersistentTypeId if they embed pointers to other heap objects.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "persistent objects must be trivially destructible");
    std::uint32_t type_id = 0;
    if constexpr (HasPersistentTypeId<T>) type_id = T::kPersistentTypeId;
    void* p = Alloc(sizeof(T), type_id);
    if (p == nullptr) return nullptr;
    // Constructing a freshly allocated (hence unreachable, unpublished)
    // object is a blessed write under TSPSan: nothing can roll it back.
    ScopedWriteWindow window(p, sizeof(T));
    return new (p) T(std::forward<Args>(args)...);
  }

  /// Frees an object previously obtained from New.
  template <typename T>
  void Delete(T* object) {
    Free(object);
  }

  /// get_root/set_root of the paper: the single entry point from which
  /// all live persistent data must be reachable.
  template <typename T = void>
  T* root() const {
    const std::uint64_t offset =
        region_->header()->root_offset.load(std::memory_order_acquire);
    return offset == 0 ? nullptr : static_cast<T*>(region_->FromOffset(offset));
  }
  void set_root(const void* payload) {
    region_->header()->root_offset.store(
        payload == nullptr ? 0 : region_->ToOffset(payload),
        std::memory_order_release);
  }

  /// Runs the recovery-time mark-sweep GC (call after any runtime
  /// rollback, with no concurrent mutators).
  GcStats RunRecoveryGc(const TypeRegistry& registry) {
    return RunMarkSweepGc(&allocator_, registry);
  }

  /// Declares recovery complete: needs_recovery() becomes false and
  /// resilience runtimes may initialize. Call after rollback + GC.
  void FinishRecovery() { region_->MarkRecovered(); }

  /// Reserved bytes for the resilience runtime (undo logs, lock words).
  void* runtime_area() const {
    return region_->FromOffset(region_->header()->runtime_area_offset);
  }
  std::size_t runtime_area_size() const {
    return region_->header()->runtime_area_size;
  }

  /// Marks a clean shutdown and syncs to the backing file. The calling
  /// thread's magazines drain to the shared lists first so the on-media
  /// metadata a clean successor session trusts is exact; other threads
  /// drain at their own exit or at allocator destruction (both before
  /// the mapping goes away, which is what the sync cares about).
  void CloseClean() {
    allocator_.FlushCurrentThreadCache();
    region_->MarkCleanShutdown();
  }

  /// msync to the backing file (only needed by non-TSP plans).
  Status SyncToBacking() { return region_->SyncToBacking(); }

  MappedRegion* region() { return region_.get(); }
  const MappedRegion* region() const { return region_.get(); }
  Allocator* allocator() { return &allocator_; }
  const Allocator* allocator() const { return &allocator_; }
  AllocatorStats GetAllocatorStats() const { return allocator_.GetStats(); }

  /// The heap's flight recorder, or nullptr when tracing is off (compile-
  /// or run-time), the runtime area has no trace reservation, or the
  /// mapping is read-only. Use obs::TraceReader for post-crash decoding.
  obs::Recorder* recorder() { return recorder_.get(); }

  ~PersistentHeap();

 private:
  explicit PersistentHeap(std::unique_ptr<MappedRegion> region);
  /// Every factory's last step: the heap over `region`, with its flight
  /// recorder attached (writable mappings only).
  static StatusOr<std::unique_ptr<PersistentHeap>> Wrap(
      std::unique_ptr<MappedRegion> region);

  std::unique_ptr<MappedRegion> region_;
  Allocator allocator_;
  std::unique_ptr<obs::Recorder> recorder_;
  std::uint64_t metrics_source_id_ = 0;
};

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_HEAP_H_
