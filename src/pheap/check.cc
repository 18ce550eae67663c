#include "pheap/check.h"

#include <algorithm>
#include <unordered_set>

#include "atlas/log_layout.h"
#include "common/process_id.h"
#include "pheap/allocator.h"
#include "pheap/layout.h"

namespace tsp::pheap {
namespace {

constexpr std::size_t kMaxProblems = 16;

void AddProblem(CheckReport* report, std::string problem) {
  ++report->problems_total;
  if (report->problems.size() < kMaxProblems) {
    report->problems.push_back(std::move(problem));
  }
}

struct Extent {
  std::uint64_t offset;
  std::uint64_t size;
};

/// The Atlas part of CheckHeap: undo-log well-formedness (through the
/// same ring decoder recovery uses), counter slots, slot claims and
/// robust lock words. Skipped when the runtime area holds no Atlas area
/// (pheap-only heaps, never-initialized runtimes).
void CheckAtlasArea(const MappedRegion& region, std::uint64_t arena_start,
                    std::uint64_t arena_end, std::uint64_t bump,
                    CheckReport* report) {
  const RegionHeader* header = region.header();
  void* area_base = region.FromOffset(header->runtime_area_offset);
  const std::size_t area_size =
      atlas::AtlasAreaSize(header->runtime_area_size);
  const Status area_status = atlas::AtlasArea::Check(area_base, area_size);
  if (area_status.code() == StatusCode::kNotFound) return;
  if (!area_status.ok()) {
    AddProblem(report, "undo-log: " + area_status.message());
    return;
  }
  const atlas::AtlasArea area(area_base, area_size);
  atlas::RecordWindows windows;
  windows.store_begin = arena_start;
  windows.store_end = arena_end;
  windows.alloc_begin = arena_start + sizeof(BlockHeader);
  windows.alloc_end = bump;
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    const atlas::ThreadLogHeader* slot = area.slot(t);
    const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = slot->tail.load(std::memory_order_relaxed);
    if (head == tail) continue;
    ++report->log_rings_scanned;
    const atlas::DecodedRing ring =
        atlas::DecodeRing(area, t, head, tail, windows);
    report->log_entries_scanned += ring.entries;
    for (const std::string& defect : ring.defects) {
      AddProblem(report, "undo-log: " + defect);
    }
  }
  // Armed FliT counter slots are undo records too; a consistent
  // (even-version) slot must point at an aligned word inside the arena.
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    for (std::uint32_t s = 0; s < area.counter_slots_per_thread(); ++s) {
      const atlas::CounterSlot& cs = area.counter_slots(t)[s];
      if (cs.addr_offset == 0 ||
          cs.version.load(std::memory_order_relaxed) % 2 != 0) {
        continue;
      }
      if (cs.addr_offset % 8 != 0 || cs.addr_offset < arena_start ||
          cs.addr_offset + 8 > arena_end) {
        AddProblem(report, "undo-log: counter slot " + std::to_string(s) +
                               " of thread " + std::to_string(t) +
                               " targets outside the arena");
      }
    }
  }
  // --- slot-claim identity uniqueness ---
  // Two claimed slots stamped with the same (pid, tid, birth) would mean
  // one thread incarnation owns two undo rings — the tid-reuse hazard
  // the birth epoch exists to prevent. pid == 0 stamps (mid-claim) are
  // skipped.
  struct SlotClaim {
    std::uint32_t slot;
    std::uint32_t pid;
    std::uint32_t tid;
    std::uint64_t birth;
  };
  std::vector<SlotClaim> claims;
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    const atlas::ThreadLogHeader& slot = *area.slot(t);
    if (slot.in_use.load(std::memory_order_relaxed) == atlas::kSlotFree) {
      continue;
    }
    const std::uint32_t pid = slot.owner_pid.load(std::memory_order_relaxed);
    if (pid == 0) continue;
    ++report->slots_claimed;
    const SlotClaim claim{t, pid, slot.owner_tid,
                          slot.owner_birth.load(std::memory_order_relaxed)};
    for (const SlotClaim& other : claims) {
      if (other.pid == claim.pid && other.tid == claim.tid &&
          other.birth == claim.birth) {
        AddProblem(report, "slot-claim: slots " + std::to_string(other.slot) +
                               " and " + std::to_string(t) +
                               " are both claimed by pid " +
                               std::to_string(pid) + " tid " +
                               std::to_string(claim.tid) + " birth " +
                               std::to_string(claim.birth));
      }
    }
    claims.push_back(claim);
  }
  // --- robust lock table ---
  // A held word's owner token must resolve to a claimed slot with a live
  // claimant; anything else is a wedged lock no process can ever release
  // (the per-slot harvest missed it, or the token is garbage).
  for (std::uint32_t w = 0; w < area.robust_lock_count(); ++w) {
    const std::uint64_t token =
        area.robust_lock(w)->owner.load(std::memory_order_relaxed);
    if (token == 0) continue;
    ++report->robust_locks_held;
    if (token > area.max_threads()) {
      ++report->wedged_locks;
      AddProblem(report, "robust-lock: word " + std::to_string(w) +
                             " owner token " + std::to_string(token) +
                             " exceeds the slot count");
      continue;
    }
    const atlas::ThreadLogHeader& slot =
        *area.slot(static_cast<std::uint32_t>(token - 1));
    if (slot.in_use.load(std::memory_order_relaxed) == atlas::kSlotFree) {
      ++report->wedged_locks;
      AddProblem(report, "robust-lock: word " + std::to_string(w) +
                             " is held by freed slot " +
                             std::to_string(token - 1));
      continue;
    }
    const std::uint32_t pid = slot.owner_pid.load(std::memory_order_relaxed);
    const std::uint64_t birth =
        slot.owner_birth.load(std::memory_order_relaxed);
    if (pid != 0 && CheckLiveness(pid, birth) != Liveness::kAlive) {
      ++report->wedged_locks;
      AddProblem(report, "robust-lock: word " + std::to_string(w) +
                             " is held by slot " +
                             std::to_string(token - 1) +
                             " whose claimant pid " + std::to_string(pid) +
                             " is " +
                             LivenessName(CheckLiveness(pid, birth)));
    }
  }
}

}  // namespace

std::string CheckReport::ToString() const {
  std::string out = ok ? "heap check OK" : "heap check FAILED";
  out += ": " + std::to_string(reachable_objects) + " live objects (" +
         std::to_string(reachable_bytes) + " B), " +
         std::to_string(free_blocks) + " free blocks (" +
         std::to_string(free_bytes) + " B), " +
         std::to_string(unaccounted_bytes) + " B unaccounted";
  if (log_rings_scanned > 0) {
    out += ", " + std::to_string(log_entries_scanned) +
           " log entries in " + std::to_string(log_rings_scanned) + " rings";
  }
  if (slots_claimed > 0) {
    out += ", " + std::to_string(slots_claimed) + " slots claimed";
  }
  if (robust_locks_held > 0 || wedged_locks > 0) {
    out += ", " + std::to_string(robust_locks_held) +
           " robust locks held (" + std::to_string(wedged_locks) +
           " wedged)";
  }
  for (const std::string& problem : problems) {
    out += "\n  - " + problem;
  }
  if (problems_total > problems.size()) {
    out += "\n  (+" + std::to_string(problems_total - problems.size()) +
           " more problems not shown)";
  }
  return out;
}

void CheckReport::AppendTo(report::FindingSink* sink) const {
  for (const std::string& problem : problems) {
    std::string rule = "heap";
    std::string message = problem;
    // Problems may be tagged "rule-slug: message".
    const std::size_t colon = problem.find(": ");
    if (colon != std::string::npos && colon > 0 &&
        problem.find(' ') > colon) {
      rule = problem.substr(0, colon);
      message = problem.substr(colon + 2);
    }
    sink->AddError("heap-check", rule, "", message);
  }
}

CheckReport CheckHeap(const PersistentHeap& heap,
                      const TypeRegistry& registry) {
  CheckReport report;
  const MappedRegion* region = heap.region();
  const RegionHeader* header = region->header();

  // --- header sanity ---
  if (header->magic != kRegionMagic) {
    AddProblem(&report, "bad region magic");
    return report;
  }
  const std::uint64_t arena_start = header->arena_offset;
  const std::uint64_t arena_end = arena_start + header->arena_size;
  const std::uint64_t bump =
      header->bump_offset.load(std::memory_order_relaxed);
  if (arena_end > header->region_size ||
      header->runtime_area_offset + header->runtime_area_size !=
          arena_start) {
    AddProblem(&report, "region layout offsets are inconsistent");
  }
  if (bump < arena_start || bump > arena_end) {
    AddProblem(&report, "bump pointer outside the arena");
    return report;
  }

  std::vector<Extent> extents;

  // --- free lists ---
  const std::uint64_t max_blocks = (bump - arena_start) / (2 * kGranule) + 1;
  for (std::size_t size_class = 0; size_class < Allocator::kNumSizeClasses;
       ++size_class) {
    const std::size_t expected_size =
        Allocator::ClassBlockSize(static_cast<int>(size_class));
    std::uint64_t offset =
        OffsetOf(header->free_list_head(size_class).load(
            std::memory_order_relaxed));
    std::uint64_t walked = 0;
    while (offset != 0) {
      if (offset < arena_start || offset + expected_size > bump ||
          offset % kGranule != 0) {
        AddProblem(&report, "free block outside arena in class " +
                                std::to_string(size_class));
        break;
      }
      const auto* block =
          static_cast<const BlockHeader*>(region->FromOffset(offset));
      if (block->magic != BlockHeader::kFreeMagic) {
        AddProblem(&report, "free-list block without free magic in class " +
                                std::to_string(size_class));
        break;
      }
      if (block->block_size != expected_size) {
        // Raw comparison on purpose: Free clears the owner tag, so a
        // tagged word on a free list means a torn or foreign block.
        AddProblem(&report,
                   "free block of wrong size in class " +
                       std::to_string(size_class) + ": " +
                       std::to_string(block->block_size));
        break;
      }
      extents.push_back({offset, expected_size});
      ++report.free_blocks;
      report.free_bytes += expected_size;
      if (++walked > max_blocks) {
        AddProblem(&report, "free-list cycle in class " +
                                std::to_string(size_class));
        break;
      }
      offset = static_cast<const FreeBlockPayload*>(
                   region->FromOffset(offset + sizeof(BlockHeader)))
                   ->next_offset;
    }
  }

  // --- reachability walk (mark without sweep) ---
  std::unordered_set<std::uint64_t> visited;
  std::vector<const void*> pending;
  const std::uint64_t root =
      header->root_offset.load(std::memory_order_relaxed);
  if (root != 0) pending.push_back(region->FromOffset(root));
  const PointerVisitor visit = [&pending](const void* p) {
    if (p != nullptr) pending.push_back(p);
  };
  while (!pending.empty()) {
    const void* payload = pending.back();
    pending.pop_back();
    if (!region->Contains(payload)) continue;  // foreign pointers are legal
    const std::uint64_t payload_offset = region->ToOffset(payload);
    if (payload_offset < arena_start + sizeof(BlockHeader) ||
        payload_offset % kGranule != 0) {
      AddProblem(&report, "reachable pointer is not a valid payload at " +
                              std::to_string(payload_offset));
      continue;
    }
    const std::uint64_t block_offset = payload_offset - sizeof(BlockHeader);
    if (!visited.insert(block_offset).second) continue;
    const auto* block =
        static_cast<const BlockHeader*>(region->FromOffset(block_offset));
    if (block->magic != BlockHeader::kAllocatedMagic) {
      AddProblem(&report, "reachable block without allocated magic at " +
                              std::to_string(block_offset));
      continue;
    }
    if (Allocator::SizeClassOf(block->size()) < 0 ||
        block_offset + block->size() > bump) {
      AddProblem(&report, "reachable block with bad size at " +
                              std::to_string(block_offset));
      continue;
    }
    extents.push_back({block_offset, block->size()});
    ++report.reachable_objects;
    report.reachable_bytes += block->size();
    if (block->type_id != 0) {
      const TypeInfo* info = registry.Find(block->type_id);
      if (info != nullptr && info->trace) info->trace(block + 1, visit);
    }
  }

  // --- overlap + accounting ---
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });
  std::uint64_t covered = 0;
  std::uint64_t cursor = arena_start;
  for (const Extent& extent : extents) {
    if (extent.offset < cursor) {
      AddProblem(&report,
                 "extents overlap at " + std::to_string(extent.offset) +
                     " (free list and live data collide, or duplicate "
                     "free blocks)");
    }
    covered += extent.size;
    cursor = std::max(cursor, extent.offset + extent.size);
  }
  // Not a problem by itself: besides GC slivers and crash leaks (both
  // reclaimed by the next GC), bytes parked in live thread magazines or
  // remote-free inboxes are intentionally on no list and unreachable.
  const std::uint64_t used = bump - arena_start;
  report.unaccounted_bytes = used > covered ? used - covered : 0;

  CheckAtlasArea(*region, arena_start, arena_end, bump, &report);

  report.ok = report.problems_total == 0;
  return report;
}

}  // namespace tsp::pheap
