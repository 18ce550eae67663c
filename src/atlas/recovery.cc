#include "atlas/recovery.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "analysis/race_hooks.h"
#include "atlas/log_layout.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "pheap/sanitizer.h"

namespace tsp::atlas {
namespace {

/// Replays `undo` into `region` newest stamp first. Leased stamps are
/// sparse (handed out in per-thread blocks of the global counter) and
/// unique per undo record; only their relative order matters. Records
/// racing on the same location are always ordered consistently with
/// the actual write order: same-thread records by lease monotonicity,
/// cross-thread records because the locks serializing the writes force
/// a stamp resync at every release→acquire edge. Reverse-stamp replay
/// therefore restores each location's oldest overwritten value last.
/// Every record is checked against the region before any is applied.
/// Returns the number of records applied.
StatusOr<std::uint64_t> ApplyUndo(std::vector<UndoRecord> undo,
                                  const pheap::MappedRegion* region) {
  for (const UndoRecord& record : undo) {
    if (record.size > 8 || record.addr_offset > region->size() ||
        record.size > region->size() - record.addr_offset) {
      return Status::Corruption("undo record points outside the region");
    }
  }
  std::sort(undo.begin(), undo.end(),
            [](const UndoRecord& a, const UndoRecord& b) {
              return a.seq > b.seq;
            });
  for (const UndoRecord& record : undo) {
    void* target = region->FromOffset(record.addr_offset);
    // Rollback is a blessed writer under TSPSan: it restores the logged
    // old value, which is by definition the logged state. TSPRace
    // resets the restored span's shadow for the same reason.
    analysis::HookRollback(target, record.size);
    pheap::ScopedWriteWindow window(target, record.size);
    std::memcpy(target, &record.old_value, record.size);
  }
  return undo.size();
}

}  // namespace

std::string RecoveryStats::ToString() const {
  std::string out = "atlas recovery: ";
  if (!performed) return out + "heap was clean, nothing to do";
  out += std::to_string(rings_scanned) + " rings, ";
  out += std::to_string(entries_scanned) + " log entries, ";
  out += std::to_string(ocses_seen) + " OCSes seen, ";
  out += std::to_string(ocses_incomplete) + " incomplete, ";
  out += std::to_string(ocses_cascaded) + " cascaded, ";
  out += std::to_string(stores_undone) + " stores undone";
  return out;
}

StatusOr<RecoveryStats> RecoverAtlas(pheap::PersistentHeap* heap) {
  RecoveryStats stats;
  if (!heap->needs_recovery()) {
    return stats;  // clean shutdown: nothing can need rollback
  }
  stats.performed = true;
  TSP_COUNTER_INC("recovery.heaps_recovered");

  // Per-phase wall time, observed into power-of-two histograms so the
  // recovery cost structure (scan vs analysis vs rollback) is visible in
  // every metrics snapshot without bench-specific plumbing.
  using Clock = std::chrono::steady_clock;
  auto observe_us = []([[maybe_unused]] const char* name,
                       [[maybe_unused]] Clock::time_point since) {
    TSP_HISTOGRAM_OBSERVE(
        name, static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - since)
                      .count()));
  };
  [[maybe_unused]] auto phase_start = Clock::now();

  void* area_base = heap->runtime_area();
  const std::size_t area_size = AtlasAreaSize(heap->runtime_area_size());
  const Status area_status = AtlasArea::Check(area_base, area_size);
  if (area_status.code() == StatusCode::kNotFound) {
    // A heap that crashed before the Atlas area was ever formatted (or
    // that never used Atlas at all, e.g. the non-blocking case study):
    // there is nothing to roll back.
    return stats;
  }
  TSP_RETURN_IF_ERROR(area_status);
  AtlasArea area(area_base, area_size);

  // --- decode every ring ---
  // Every OCS, ring by ring in program order, so an OCS's same-thread
  // successor is the next node when it has the same thread.
  struct OcsNode {
    std::uint16_t thread;
    DecodedOcs* ocs;
    bool rolled_back = false;
  };
  std::vector<DecodedRing> rings(area.max_threads());
  std::vector<OcsNode> nodes;
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    const ThreadLogHeader* slot = area.slot(t);
    const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = slot->tail.load(std::memory_order_relaxed);
    if (tail == head) continue;
    rings[t] = DecodeRing(area, t, head, tail);
    if (!rings[t].unusable.empty()) {
      return Status::Corruption("undo log " + rings[t].unusable);
    }
    ++stats.rings_scanned;
    stats.entries_scanned += rings[t].entries + rings[t].slot_records;
    stats.ocses_seen += rings[t].ocses.size();
    for (DecodedOcs& ocs : rings[t].ocses) {
      nodes.push_back(OcsNode{static_cast<std::uint16_t>(t), &ocs});
    }
  }

  observe_us("recovery.scan_us", phase_start);
  phase_start = Clock::now();

  // --- rollback closure ---
  // Base set: every OCS that never committed. Cascade along two kinds of
  // happens-before edges: lock release→acquire dependencies, and
  // same-thread program order (a thread's later OCSes may have computed
  // on values its rolled-back earlier OCS produced, so they roll back
  // too — Atlas's durability order includes program order).
  std::vector<std::size_t> worklist;
  auto mark = [&](std::size_t i, bool incomplete) {
    if (nodes[i].rolled_back) return;
    nodes[i].rolled_back = true;
    std::vector<std::uint64_t>* reported = &stats.rolled_back_cascaded;
    if (incomplete) {
      ++stats.ocses_incomplete;
      reported = &stats.rolled_back_incomplete;
    } else {
      ++stats.ocses_cascaded;
    }
    if (reported->size() < RecoveryStats::kMaxReportedRollbacks) {
      reported->push_back(PackThreadOcs(nodes[i].thread, nodes[i].ocs->id));
    }
    worklist.push_back(i);
  };
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].ocs->committed) mark(i, /*incomplete=*/true);
  }
  // Reverse edges: dependents of each OCS.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> dependents;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const std::uint64_t dep : nodes[i].ocs->deps) {
      dependents[dep].push_back(i);
    }
  }
  while (!worklist.empty()) {
    const std::size_t current = worklist.back();
    worklist.pop_back();
    // The program-order successor on the same thread (which in turn
    // marks its own successor).
    if (current + 1 < nodes.size() &&
        nodes[current + 1].thread == nodes[current].thread) {
      mark(current + 1, /*incomplete=*/false);
    }
    // Lock-dependency successors.
    const auto it = dependents.find(
        PackThreadOcs(nodes[current].thread, nodes[current].ocs->id));
    if (it == dependents.end()) continue;
    for (const std::size_t dependent : it->second) {
      mark(dependent, /*incomplete=*/false);
    }
  }

  observe_us("recovery.analysis_us", phase_start);
  phase_start = Clock::now();

  // --- apply undo records in reverse global order ---
  std::vector<UndoRecord> undo;
  for (const OcsNode& node : nodes) {
    if (!node.rolled_back) continue;
    undo.insert(undo.end(), node.ocs->undo.begin(), node.ocs->undo.end());
  }
  TSP_ASSIGN_OR_RETURN(stats.stores_undone,
                       ApplyUndo(std::move(undo), heap->region()));

  observe_us("recovery.rollback_us", phase_start);
  TSP_COUNTER_ADD("recovery.ocses_rolled_back",
                  stats.ocses_incomplete + stats.ocses_cascaded);
  TSP_COUNTER_ADD("recovery.stores_undone", stats.stores_undone);

  // --- reset the log area for the next session ---
  if (area.counter_slots_per_thread() > 0) {
    for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
      std::memset(static_cast<void*>(area.counter_slots(t)), 0,
                  sizeof(CounterSlot) * area.counter_slots_per_thread());
    }
  }
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    ThreadLogHeader* slot = area.slot(t);
    slot->in_use.store(0, std::memory_order_relaxed);
    slot->head.store(0, std::memory_order_relaxed);
    slot->tail.store(0, std::memory_order_relaxed);
    std::uint64_t next = slot->next_ocs.load(std::memory_order_relaxed);
    if (next == 0) {
      next = 1;
      slot->next_ocs.store(1, std::memory_order_relaxed);
    }
    slot->committed_ocs.store(next - 1, std::memory_order_relaxed);
    slot->stable_ocs.store(next - 1, std::memory_order_relaxed);
    slot->owner_pid.store(0, std::memory_order_relaxed);
    slot->owner_tid = 0;
    slot->owner_birth.store(0, std::memory_order_relaxed);
  }
  // Every claimant of the crashed domain is dead here (full recovery
  // requires exclusivity), so all robust locks are free. The table
  // header's counters are cumulative domain statistics and survive.
  for (std::uint32_t i = 0; i < area.robust_lock_count(); ++i) {
    RobustLockWord* word = area.robust_lock(i);
    word->owner.store(0, std::memory_order_relaxed);
    word->dependency.last_release.store(0, std::memory_order_relaxed);
    word->dependency.release_seq.store(0, std::memory_order_relaxed);
  }

  return stats;
}

SlotHarvestStats HarvestDeadSlot(const AtlasArea& area,
                                 const pheap::MappedRegion* region,
                                 std::uint32_t thread_id) {
  SlotHarvestStats stats;
  ThreadLogHeader* slot = area.slot(thread_id);
  const std::uint64_t head = slot->head.load(std::memory_order_acquire);
  const std::uint64_t tail = slot->tail.load(std::memory_order_acquire);

  // The owner died mid-OCS, so like RecoverAtlas we decode the ring —
  // but only the *tail* open OCS can need rollback (everything before
  // it committed; see the header comment for why committed OCSes of a
  // dead slot can never cascade).
  DecodedRing ring = DecodeRing(area, thread_id, head, tail);
  stats.entries_scanned = ring.entries;
  if (!ring.unusable.empty()) {
    stats.status = Status::Corruption("dead slot's " + ring.unusable);
    return stats;
  }
  std::uint64_t rewind = tail;
  if (!ring.ocses.empty() && !ring.ocses.back().committed) {
    DecodedOcs& open = ring.ocses.back();
    StatusOr<std::uint64_t> undone =
        ApplyUndo(std::move(open.undo), region);
    if (!undone.ok()) {
      stats.status = undone.status();
      return stats;
    }
    stats.stores_undone = *undone;
    stats.rolled_back = true;
    rewind = open.begin;
  }

  // Rewind past the open OCS's bracket ("it never happened") and trim
  // the committed remainder, whose stabilization is declared below.
  // Order matters for harvest-crash idempotency: undo application above
  // reads the entries these stores drop, and a re-harvest that finds
  // the rewound ring simply has nothing left to undo.
  slot->tail.store(rewind, std::memory_order_release);
  slot->head.store(rewind, std::memory_order_release);

  // The open OCS's id is burned, never re-issued, and now recorded as
  // "committed, stable, did nothing" — the same bookkeeping Initialize
  // uses (committed = next - 1). Declaring the slot's committed OCSes
  // stable is what frees peers from recording dependencies on a ghost.
  const std::uint64_t next = slot->next_ocs.load(std::memory_order_relaxed);
  if (next > 0) {
    slot->committed_ocs.store(next - 1, std::memory_order_relaxed);
    slot->stable_ocs.store(next - 1, std::memory_order_release);
  }

  // Empty the dead slot's counter slots (their occupants are all stable
  // or rolled back now) so the next claimant starts clean.
  if (area.counter_slots_per_thread() > 0) {
    std::memset(static_cast<void*>(area.counter_slots(thread_id)), 0,
                sizeof(CounterSlot) * area.counter_slots_per_thread());
  }

  // Free every robust lock word the dead slot still owns — after the
  // rollback above, so a waiting peer that wins the word next observes
  // pre-OCS state, never the dead writer's torn updates. The dependency
  // channel is left intact: an interrupted OCS never wrote it (releases
  // write it), so it still names the previous *committed* releaser.
  const std::uint64_t token = static_cast<std::uint64_t>(thread_id) + 1;
  for (std::uint32_t i = 0; i < area.robust_lock_count(); ++i) {
    RobustLockWord* word = area.robust_lock(i);
    if (word->owner.load(std::memory_order_acquire) != token) continue;
    word->owner.store(0, std::memory_order_release);
    ++stats.locks_cleared;
  }
  return stats;
}

void AccumulateRecovery(const FullRecoveryResult& shard,
                        FullRecoveryResult* total) {
  RecoveryStats& atlas = total->atlas;
  atlas.performed |= shard.atlas.performed;
  atlas.rings_scanned += shard.atlas.rings_scanned;
  atlas.entries_scanned += shard.atlas.entries_scanned;
  atlas.ocses_seen += shard.atlas.ocses_seen;
  atlas.ocses_incomplete += shard.atlas.ocses_incomplete;
  atlas.ocses_cascaded += shard.atlas.ocses_cascaded;
  atlas.stores_undone += shard.atlas.stores_undone;
  auto append_capped = [](const std::vector<std::uint64_t>& from,
                          std::vector<std::uint64_t>* to) {
    for (const std::uint64_t id : from) {
      if (to->size() >= RecoveryStats::kMaxReportedRollbacks) return;
      to->push_back(id);
    }
  };
  append_capped(shard.atlas.rolled_back_incomplete,
                &atlas.rolled_back_incomplete);
  append_capped(shard.atlas.rolled_back_cascaded,
                &atlas.rolled_back_cascaded);
  pheap::GcStats& gc = total->gc;
  gc.live_objects += shard.gc.live_objects;
  gc.live_bytes += shard.gc.live_bytes;
  gc.free_blocks += shard.gc.free_blocks;
  gc.free_bytes += shard.gc.free_bytes;
  gc.tail_reclaimed_bytes += shard.gc.tail_reclaimed_bytes;
  gc.sliver_bytes += shard.gc.sliver_bytes;
  gc.invalid_pointers += shard.gc.invalid_pointers;
}

StatusOr<FullRecoveryResult> RecoverHeap(
    pheap::PersistentHeap* heap, const pheap::TypeRegistry& registry) {
  FullRecoveryResult result;
  TSP_ASSIGN_OR_RETURN(result.atlas, RecoverAtlas(heap));
  result.gc = heap->RunRecoveryGc(registry);
  heap->FinishRecovery();
  return result;
}

}  // namespace tsp::atlas
