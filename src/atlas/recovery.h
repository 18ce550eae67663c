// Copyright 2026 The TSP Authors.
// Atlas recovery: restores the persistent heap to a consistent state
// after a crash by rolling back crash-interrupted outermost critical
// sections — and, transitively, completed OCSes that observed their
// data (paper §4.2; the "subtle interactions among OCSes" of Atlas
// §2.3).
//
// Run order after an unclean open:
//   1. RecoverAtlas(heap)      — undo rollback, resets the log area.
//   2. heap->RunRecoveryGc(..) — reclaim leaked blocks, rebuild the
//                                allocator.
//   3. AtlasRuntime::Initialize + resume.

#ifndef TSP_ATLAS_RECOVERY_H_
#define TSP_ATLAS_RECOVERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atlas/log_layout.h"
#include "common/status.h"
#include "pheap/heap.h"

namespace tsp::atlas {

/// Outcome of a recovery pass.
struct RecoveryStats {
  /// False when the heap was clean (nothing to do) — still a success.
  bool performed = false;
  std::uint64_t rings_scanned = 0;
  std::uint64_t entries_scanned = 0;
  /// OCSes whose logs were still present (committed but unpruned).
  std::uint64_t ocses_seen = 0;
  /// OCSes interrupted by the crash (at most one per ring).
  std::uint64_t ocses_incomplete = 0;
  /// Completed OCSes rolled back because they transitively depended on
  /// an incomplete one.
  std::uint64_t ocses_cascaded = 0;
  /// Undo records applied (in reverse global-sequence order).
  std::uint64_t stores_undone = 0;

  /// Identities (PackThreadOcs) of the rolled-back OCSes, split by
  /// reason, capped at kMaxReportedRollbacks each (the counters above
  /// stay exact). Lets tools cross-reference recovery's decisions with
  /// the flight recorder's post-crash event stream (tsp_inspect trace).
  static constexpr std::size_t kMaxReportedRollbacks = 64;
  std::vector<std::uint64_t> rolled_back_incomplete;
  std::vector<std::uint64_t> rolled_back_cascaded;

  std::string ToString() const;
};

/// Rolls back the undo log of `heap` and resets the log area for the
/// next session. Requires heap->needs_recovery(); no concurrent
/// mutators. Returns kCorruption if the log area is unrecognizable.
/// Does NOT mark recovery finished — run the GC first, then
/// heap->FinishRecovery() (or use RecoverHeap below).
StatusOr<RecoveryStats> RecoverAtlas(pheap::PersistentHeap* heap);

/// Outcome of harvesting one dead claimant's slot (survivor-driven
/// recovery, DESIGN.md §12): unlike RecoverAtlas this runs while live
/// peers keep serving, and touches only the dead slot's ring, counter
/// slots, and robust lock words.
struct SlotHarvestStats {
  /// True when the slot had an open (crash-interrupted) OCS, now undone.
  bool rolled_back = false;
  std::uint64_t entries_scanned = 0;
  std::uint64_t stores_undone = 0;
  /// Robust lock words the dead slot still owned (cleared).
  std::uint64_t locks_cleared = 0;
  Status status = Status::OK();
};

/// Rolls back the tail open OCS (at most one) of slot `thread_id` from
/// its undo log and counter slots, rewinds and trims its ring, marks
/// its committed OCSes stable, and clears every robust lock word the
/// slot owns. The caller owns the exactly-once handoff: the slot must
/// be in kSlotHarvesting state, stamped with the caller's identity,
/// before this runs (AtlasRuntime::HarvestDeadSlots does both). Every
/// step is idempotent, so a harvest interrupted by the *harvester's*
/// death is completed by the next survivor.
///
/// Soundness of the slot-local scope: an interrupted OCS still held its
/// outermost lock when the owner died, so no OCS of a live process can
/// have recorded a dependency on it and no cascade is needed. Only a
/// nested lock released early could carry such an edge, and PMutex
/// refuses a robust lock — the only kind another process can take —
/// inside an open OCS. An unbound lock nested in it serializes threads
/// of the dead process alone; their committed OCSes are kept as they
/// are (no cascade within the dead process either).
SlotHarvestStats HarvestDeadSlot(const AtlasArea& area,
                                 const pheap::MappedRegion* region,
                                 std::uint32_t thread_id);

/// Combined result of the full recovery pipeline.
struct FullRecoveryResult {
  RecoveryStats atlas;
  pheap::GcStats gc;
};

/// Adds one shard's recovery result to a domain-wide total: counters
/// sum, the reported rollback ids concatenate up to their cap.
void AccumulateRecovery(const FullRecoveryResult& shard,
                        FullRecoveryResult* total);

/// The complete post-crash pipeline: Atlas rollback, then mark-sweep GC
/// with `registry`, then FinishRecovery. Safe to call on clean heaps
/// (the rollback is skipped but the GC still runs, which is harmless).
/// A sharded domain recovers its shards one after another with this:
/// each shard's logs, locks and counters live in its own runtime area,
/// so shard recoveries are independent (DESIGN.md §7.3).
StatusOr<FullRecoveryResult> RecoverHeap(pheap::PersistentHeap* heap,
                                         const pheap::TypeRegistry& registry);

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_RECOVERY_H_
