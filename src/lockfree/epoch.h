// Copyright 2026 The TSP Authors.
// Epoch-based memory reclamation for non-blocking data structures.
//
// Readers/writers enter an epoch-protected region (Guard) before
// touching nodes; physically unlinked nodes are Retire()d and freed only
// after every registered thread has moved past the retirement epoch, so
// no thread can hold a reference to freed memory.
//
// Crash interaction (the §4.1 story): retirement bookkeeping is
// volatile. If the process crashes, limbo nodes are simply leaked in the
// persistent heap — they are unreachable from the root, so the
// recovery-time GC reclaims them. Nothing here needs logging or
// flushing.
//
// Hot-path design (the read path is the §4.1 sell, so Enter/Exit must
// cost a handful of instructions):
//   * slot lookup is a POD thread-local binding: one compare on the
//     manager's instance id, no vector scan, no TLS-guard branch;
//   * Enter is a single seq_cst announcement plus the announce-and-
//     revalidate load (the one unavoidable fence); Exit is one release
//     store;
//   * global-epoch advance is amortized: attempted only every
//     kAdvanceEveryRetires retirements (the only time garbage appears)
//     and, when the caller's limbo is pending, every kAdvanceEveryOps
//     guard exits;
//   * reclamation is batched: a successful advance frees every bucket
//     that has aged past the three-epoch grace window in one sweep;
//   * retire/free/limbo accounting lives in the owner's slot (relaxed
//     owner-only stores), so retiring writes no line another worker
//     writes; GetStats sums the slots.
//
// Every thread that enters gets its own slot. Slots form an
// append-only list: a registering thread claims a released slot or
// links a new one at the head, and only the destructor frees slots, so
// an advance scans just the slots that threads have registered.

#ifndef TSP_LOCKFREE_EPOCH_H_
#define TSP_LOCKFREE_EPOCH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/macros.h"

namespace tsp::lockfree {

/// Volatile reclamation counters (process-local; reset with the
/// manager). Exposed through the obs registry as lockfree.* so the
/// bench JSON and tsp_inspect can report epoch behavior.
struct EpochStats {
  std::uint64_t epoch_advances = 0;    // successful global-epoch bumps
  std::uint64_t advance_attempts = 0;  // TryAdvance scans (incl. failed)
  std::uint64_t nodes_retired = 0;
  std::uint64_t nodes_freed = 0;
  /// Sum over slots of each slot's high-water mark of pending nodes:
  /// an upper bound on the manager-wide peak, not the peak itself.
  std::uint64_t limbo_peak = 0;
};

/// One manager per data structure (or shared across structures living
/// in one heap — see SkipListMap's sharded composition). Threads
/// register implicitly on first Guard/Retire and should call
/// UnregisterCurrentThread before exiting, so that a later thread
/// reuses the slot instead of linking another.
class EpochManager {
 public:
  /// TryAdvance cadence on the retire path (garbage-producing ops).
  static constexpr std::uint32_t kAdvanceEveryRetires = 64;
  /// TryAdvance cadence on the guard-exit path, attempted only while
  /// the caller's limbo is non-empty (drains garbage under read-mostly
  /// load).
  static constexpr std::uint32_t kAdvanceEveryOps = 1024;

  struct Slot;  // opaque to callers

  /// `deleter` frees a retired pointer (e.g. heap->Free).
  explicit EpochManager(std::function<void(void*)> deleter);

  /// Frees everything still in limbo. All threads must be quiesced.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII critical-region marker. Nodes observed while a Guard is alive
  /// remain valid until the Guard is destroyed.
  class Guard {
   public:
    explicit Guard(EpochManager* manager)
        : manager_(manager), slot_(manager->Enter()) {}
    ~Guard() { manager_->Exit(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochManager* manager_;
    Slot* slot_;
  };

  /// Hands `p` to the reclamation machinery; it is freed once no thread
  /// can still hold a reference. May be called inside a Guard.
  void Retire(void* p);

  /// Releases the calling thread's slot (outside any Guard).
  void UnregisterCurrentThread();

  /// Current global epoch (for tests).
  std::uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Nodes waiting for reclamation (for tests; approximate).
  std::size_t LimboCount() const;

  EpochStats GetStats() const;

  std::uint64_t instance_id() const { return instance_id_; }

  struct alignas(kCacheLineSize) Slot {
    /// 0 = not in a critical region; otherwise (epoch << 1) | 1.
    std::atomic<std::uint64_t> state{0};
    std::atomic<std::uint32_t> claimed{0};
    /// Owner-thread-only fields (no atomics needed).
    std::uint32_t ops_since_advance = 0;
    /// The slot linked before this one; set once, before the link.
    Slot* next = nullptr;
    /// Retired pointers, bucketed by epoch % 3 (three-epoch grace).
    std::array<std::vector<void*>, 3> limbo;
    std::array<std::uint64_t, 3> limbo_epoch{0, 0, 0};
    /// Stats: written by the owner only (load + relaxed store, no
    /// locked RMW), read concurrently by GetStats. Cumulative across
    /// the threads that claim the slot in turn.
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> freed{0};
    std::atomic<std::uint64_t> limbo_peak{0};
  };

 private:
  Slot* Enter();
  void Exit(Slot* slot);
  /// Slow path of the thread→slot binding: claims a released slot or
  /// links a new one, and installs the POD TLS cache.
  Slot* BindSlow();
  /// Scans announcements; on success bumps the epoch and batch-frees
  /// every aged bucket of `self`.
  void TryAdvance(Slot* self);
  void DrainBucket(Slot* slot, std::size_t bucket);

  std::function<void(void*)> deleter_;
  std::atomic<std::uint64_t> global_epoch_{3};
  std::uint64_t instance_id_;
  std::uint64_t metrics_source_id_ = 0;
  /// Head of the append-only slot list (the slot linked last).
  std::atomic<Slot*> slots_{nullptr};

  /// Stats bumped once per advance scan (every kAdvanceEveryRetires
  /// retirements at most), never per operation.
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> advance_attempts_{0};
};

}  // namespace tsp::lockfree

#endif  // TSP_LOCKFREE_EPOCH_H_
