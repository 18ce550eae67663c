// Copyright 2026 The TSP Authors.
// Log-pruning stability analysis.
//
// A committed OCS may still be rolled back after a crash if it
// transitively depends (via lock release→acquire edges or program
// order) on an OCS that the crash interrupted (paper §4.2 / Atlas
// §2.3). Its log entries must therefore be retained until it becomes
// *stable*: committed, and dependent only on stable OCSes. Stability is
// a global fixed point (committed OCSes can form dependency cycles
// through nested locks). Atlas computes it on a helper thread; here the
// thread that publishes an unstable commit runs one pass right away
// (AtlasThread::OnReleaseFinish), so no thread waits for a pruner. A
// runtime adds timed passes only for peers in other processes, which
// cannot run passes over its records (AtlasRuntime::StartPassThread).

#ifndef TSP_ATLAS_STABILITY_H_
#define TSP_ATLAS_STABILITY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "atlas/log_layout.h"

namespace tsp::atlas {

/// Record published by a thread when an OCS commits.
struct CommittedOcs {
  std::uint64_t ocs_id = 0;
  /// Ring tail just past this OCS's outermost kRelease entry (its
  /// commit record); the ring head can move here once the OCS is stable.
  std::uint64_t end_tail = 0;
  /// Packed (thread, ocs) dependencies recorded at acquire time.
  std::vector<std::uint64_t> deps;
  /// Heap payloads the OCS logically freed. Applied when the OCS
  /// becomes stable: freeing earlier would corrupt the heap if a
  /// cascade rolled the OCS back and resurrected the data.
  std::vector<void*> deferred_frees;
};

/// Tracks committed-but-unstable OCSes and advances per-ring stable/head
/// frontiers. Publish takes the thread's queue mutex, which only a pass
/// also takes; RunPass does the global fixed point.
class StabilityManager {
 public:
  /// `free_fn` releases deferred-freed payloads (normally heap->Free).
  StabilityManager(AtlasArea area, std::uint32_t max_threads,
                   std::function<void(void*)> free_fn);

  /// Called by the owning thread right after its OCS commits.
  void Publish(std::uint16_t thread_id, CommittedOcs record);

  /// One stability pass: resolves which published OCSes are stable and
  /// advances their rings' stable_ocs/head, applying their deferred
  /// frees on the calling thread. Returns the number of OCSes
  /// stabilized. Safe to call from any thread; passes run one at a time.
  std::size_t RunPass();

  /// Committed-but-unstable backlog (for tests/metrics).
  std::size_t PendingCount() const;

 private:
  /// Per-thread queue of committed OCS records, oldest (lowest OCS id)
  /// first. Only the owner pushes and only a pass pops; push_back never
  /// moves existing elements, so a pass reads them through pointers
  /// without holding the mutex.
  struct PerThread {
    mutable std::mutex mutex;
    std::deque<CommittedOcs> queue;
  };
  /// What one pass knows of a thread: its frontiers, read before its
  /// queue, and pointers to the records queued at that moment. The
  /// first `clean` records are untainted so far; taint follows program
  /// order, so it only ever shortens this prefix.
  struct View {
    std::uint64_t committed = 0;
    std::uint64_t stable = 0;
    std::vector<const CommittedOcs*> records;
    std::size_t clean = 0;
  };

  /// True when the OCS named by packed `dep` may still roll back, as
  /// far as the current pass knows.
  bool Tainted(std::uint64_t dep) const;

  AtlasArea area_;
  std::function<void(void*)> free_fn_;

  std::mutex pass_mutex_;  // serializes RunPass and guards views_
  std::vector<PerThread> pending_;
  std::vector<View> views_;
};

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_STABILITY_H_
