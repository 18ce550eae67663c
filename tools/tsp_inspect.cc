// tsp_inspect: offline diagnostics for TSP persistent heap files.
//
// Read-only — never bumps the generation, never clears the clean flag,
// never runs recovery; safe to point at a live application's heap file
// or at a crashed one awaiting recovery.
//
//   $ tsp_inspect header a.heap             # region control block (and,
//                                           # on a MapSession heap, its
//                                           # variant, shard count and
//                                           # whether it can be attached)
//   $ tsp_inspect stats a.heap [--json]     # what the file holds of the
//                                           # allocator: totals, arena
//                                           # use, free-list lengths
//   $ tsp_inspect check a.heap              # full integrity check
//   $ tsp_inspect check a.heap b.heap --json  # shard set, per-shard JSON
//   $ tsp_inspect log a.heap                # Atlas undo-log summary
//   $ tsp_inspect log a.heap -v             # ... with per-entry dump
//   $ tsp_inspect trace a.heap              # flight-recorder event stream
//   $ tsp_inspect locks run.lockgraph       # TSPRace lock-order graph
//   $ tsp_inspect locks a.heap              # robust locks + slot claims
//                                           # (owner pid/tid, liveness;
//                                           # exit 1 on wedged locks)
//
// Every command accepts multiple heap files (a sharded domain's shard
// set); output is attributed per shard and the exit code is nonzero if
// ANY shard has problems. `stats` with several files additionally emits
// an aggregate over the shard set. The historical
// `tsp_inspect <file> <command>` order still works.
//
// `check` and `log` exit nonzero when a heap (or its undo log) is
// inconsistent, so scripts and CI can gate on them.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "analysis/lock_order.h"
#include "atlas/log_layout.h"
#include "common/findings.h"
#include "common/process_id.h"
#include "lockfree/queue.h"
#include "maps/mutex_hashmap.h"
#include "obs/trace_layout.h"
#include "obs/trace_reader.h"
#include "pheap/check.h"
#include "pheap/heap.h"
#include "workload/map_session.h"

namespace {

using tsp::pheap::PersistentHeap;
using tsp::pheap::RegionHeader;

const char* EntryKindName(tsp::atlas::EntryKind kind) {
  switch (kind) {
    case tsp::atlas::EntryKind::kInvalid:
      return "invalid";
    case tsp::atlas::EntryKind::kAcquire:
      return "acquire";
    case tsp::atlas::EntryKind::kRelease:
      return "release";
    case tsp::atlas::EntryKind::kStore:
      return "store";
    case tsp::atlas::EntryKind::kAlloc:
      return "alloc";
  }
  return "?";
}

/// The heap's Atlas area, bounded by the same carved size every other
/// reader uses. Writes the reason to `error` when the area does not
/// validate; `error` stays empty for a heap that never used Atlas.
std::optional<tsp::atlas::AtlasArea> OpenAtlasArea(
    const PersistentHeap& heap, std::string* error) {
  void* base = heap.runtime_area();
  const std::size_t size =
      tsp::atlas::AtlasAreaSize(heap.runtime_area_size());
  const tsp::Status status = tsp::atlas::AtlasArea::Check(base, size);
  if (!status.ok()) {
    if (status.code() != tsp::StatusCode::kNotFound) {
      *error = status.message();
    }
    return std::nullopt;
  }
  return tsp::atlas::AtlasArea(base, size);
}

/// Whether a MapSession can attach to `heap`, whose session root names
/// `row` (null: a variant this build does not know) and `map_root`:
/// the domain's refusal for plans without an Atlas mode, then the
/// runtime's need for a current Atlas area, then, for a mutex hash map,
/// the rule that binds each lock stripe to its own robust lock word.
/// buckets_per_lock is a per-process option the heap does not record,
/// so that rule is printed as the least value that satisfies it.
std::string AttachVerdict(const PersistentHeap& heap,
                          const tsp::workload::MapVariantRow* row,
                          const void* map_root) {
  if (row == nullptr) return "no (a variant this build does not know)";
  const tsp::PersistencePlan plan = row->plan();
  const tsp::Status status =
      tsp::domain::PersistenceDomain::CheckAttachable(plan);
  if (!status.ok()) return "no (" + status.message() + ")";
  const std::string mode =
      std::string("Atlas mode ") + tsp::PersistenceModeName(plan.atlas_mode);
  std::string error;
  const auto area = OpenAtlasArea(heap, &error);
  if (!area) {
    return "no (attach needs a current-format Atlas area: " +
           (error.empty() ? std::string("none was formatted") : error) + ")";
  }
  const auto* root = static_cast<const tsp::maps::HashMapRoot*>(map_root);
  if (root == nullptr || !heap.region()->Contains(root) ||
      tsp::pheap::Allocator::HeaderOf(root)->type_id !=
          tsp::maps::HashMapRoot::kPersistentTypeId ||
      !heap.region()->Contains(root->buckets)) {
    return "yes (" + mode + ")";
  }
  const std::uint64_t buckets = root->buckets->bucket_count;
  const std::uint32_t words = area->robust_lock_count();
  if (words == 0) {
    return "no (the runtime area has no robust lock words, so the mutex "
           "map's lock stripes cannot exclude other processes)";
  }
  return "yes if buckets_per_lock >= " +
         std::to_string((buckets + words - 1) / words) + " (" + mode + "; " +
         std::to_string(buckets) + " buckets, " + std::to_string(words) +
         " robust lock words, one per lock stripe)";
}

int ShowHeader(const PersistentHeap& heap) {
  const RegionHeader* h = heap.region()->header();
  std::printf("TSP persistent heap: %s\n", heap.region()->path().c_str());
  std::printf("  layout version:   %u\n", h->version);
  std::printf("  base address:     0x%" PRIx64 "\n", h->base_address);
  std::printf("  region size:      %" PRIu64 " bytes\n", h->region_size);
  std::printf("  runtime area:     %" PRIu64 " bytes @ %" PRIu64 "\n",
              h->runtime_area_size, h->runtime_area_offset);
  std::printf("  arena:            %" PRIu64 " bytes @ %" PRIu64 "\n",
              h->arena_size, h->arena_offset);
  std::printf("  generation:       %" PRIu64 "\n",
              h->generation.load(std::memory_order_relaxed));
  std::printf("  clean shutdown:   %s\n",
              h->clean_shutdown.load(std::memory_order_relaxed)
                  ? "yes"
                  : "NO (crash recovery pending)");
  std::printf("  root offset:      %" PRIu64 "\n",
              h->root_offset.load(std::memory_order_relaxed));
  std::printf("  global sequence:  %" PRIu64
              " (lease frontier; stamps below it are handed out in "
              "per-thread blocks)\n",
              h->global_sequence.load(std::memory_order_relaxed));
  const auto session = tsp::workload::MapSession::ReadRoot(heap);
  if (!session) return 0;
  const tsp::workload::MapVariantRow* row =
      tsp::workload::FindMapVariantRow(session->variant);
  const std::string name =
      row != nullptr ? row->name
                     : "unknown (tag " +
                           std::to_string(static_cast<int>(session->variant)) +
                           ")";
  std::printf("  map variant:      %s\n", name.c_str());
  std::printf("  map shards:       %u\n", session->shard_count);
  std::printf("  attach:           %s\n",
              AttachVerdict(heap, row, session->map_root).c_str());
  return 0;
}

using FreeLists = std::vector<tsp::pheap::Allocator::FreeListLength>;

/// What a heap file holds of its allocator: lifetime operation totals
/// and arena use, summed over shards for the aggregate. The magazine
/// counters are DRAM state of the process that wrote the file, so an
/// offline report has none of them.
struct FileStats {
  std::uint64_t total_allocs = 0;
  std::uint64_t total_frees = 0;
  std::uint64_t arena_used = 0;  // carved bytes, below the bump pointer
  std::uint64_t arena_bytes = 0;

  void Add(const FileStats& shard) {
    total_allocs += shard.total_allocs;
    total_frees += shard.total_frees;
    arena_used += shard.arena_used;
    arena_bytes += shard.arena_bytes;
  }
};

FileStats ReadFileStats(const RegionHeader& header) {
  FileStats stats;
  stats.total_allocs = header.total_allocs.load(std::memory_order_relaxed);
  stats.total_frees = header.total_frees.load(std::memory_order_relaxed);
  stats.arena_used = header.bump_offset.load(std::memory_order_relaxed) -
                     header.arena_offset;
  stats.arena_bytes = header.arena_size;
  return stats;
}

/// Shared body of the per-shard and aggregate `stats` records.
void PrintStatsJsonFields(const FileStats& stats, const FreeLists& lists) {
  std::printf("\"total_allocs\":%" PRIu64 ",\"total_frees\":%" PRIu64 ",",
              stats.total_allocs, stats.total_frees);
  std::printf("\"arena_used_bytes\":%" PRIu64 ",\"arena_bytes\":%" PRIu64
              ",",
              stats.arena_used, stats.arena_bytes);
  std::printf("\"free_lists\":[");
  bool first = true;
  for (const auto& list : lists) {
    if (list.blocks == 0) continue;
    std::printf("%s{\"block_size\":%zu,\"blocks\":%" PRIu64 "}",
                first ? "" : ",", list.block_size, list.blocks);
    first = false;
  }
  std::printf("]");
}

void PrintStatsText(const FileStats& stats, const FreeLists& lists) {
  std::printf("  total allocs:       %" PRIu64 "\n", stats.total_allocs);
  std::printf("  total frees:        %" PRIu64 "\n", stats.total_frees);
  std::printf("  arena used:         %" PRIu64 " of %" PRIu64
              " bytes (%.1f%%)\n",
              stats.arena_used, stats.arena_bytes,
              100.0 * static_cast<double>(stats.arena_used) /
                  static_cast<double>(stats.arena_bytes));
  std::printf("  shared free lists (non-empty classes):\n");
  bool any = false;
  for (const auto& list : lists) {
    if (list.blocks == 0) continue;
    std::printf("    %8zu B: %" PRIu64 " blocks\n", list.block_size,
                list.blocks);
    any = true;
  }
  if (!any) std::printf("    (all empty)\n");
}

/// Allocator state a heap file holds: operation totals, arena use and
/// per-class shared free-list lengths, attributed per shard and summed
/// over the shard set. Blocks parked in a live writer's magazines are
/// on no list; the free-list walk reads the persistent lists directly.
int RunStats(const std::vector<std::string>& paths, bool json) {
  struct Shard {
    std::string path;
    std::string error;  // non-empty: the open failed
    FileStats stats;
    FreeLists lists;
  };
  std::vector<Shard> shards;
  FileStats aggregate;
  std::map<std::size_t, std::uint64_t> aggregate_lists;
  int exit_code = 0;
  for (const std::string& path : paths) {
    Shard shard;
    shard.path = path;
    auto heap = PersistentHeap::OpenReadOnly(path);
    if (!heap.ok()) {
      shard.error = heap.status().ToString();
      exit_code = 1;
    } else {
      shard.stats = ReadFileStats(*(*heap)->region()->header());
      shard.lists = (*heap)->allocator()->FreeListLengths();
      aggregate.Add(shard.stats);
      for (const auto& list : shard.lists) {
        aggregate_lists[list.block_size] += list.blocks;
      }
    }
    shards.push_back(std::move(shard));
  }
  FreeLists merged_lists;
  for (const auto& [block_size, blocks] : aggregate_lists) {
    merged_lists.push_back({block_size, blocks});
  }

  if (json) {
    std::printf("{\"aggregate\":{\"shards\":%zu,", shards.size());
    PrintStatsJsonFields(aggregate, merged_lists);
    std::printf("},\"shards\":[");
    bool first = true;
    for (const Shard& shard : shards) {
      std::printf("%s{\"path\":\"%s\",", first ? "" : ",",
                  tsp::report::JsonEscape(shard.path).c_str());
      if (!shard.error.empty()) {
        std::printf("\"ok\":false,\"error\":\"%s\"}",
                    tsp::report::JsonEscape(shard.error).c_str());
      } else {
        std::printf("\"ok\":true,");
        PrintStatsJsonFields(shard.stats, shard.lists);
        std::printf("}");
      }
      first = false;
    }
    std::printf("]}\n");
    return exit_code;
  }

  for (const Shard& shard : shards) {
    if (paths.size() > 1) std::printf("=== %s ===\n", shard.path.c_str());
    if (!shard.error.empty()) {
      std::fprintf(stderr, "cannot open %s: %s\n", shard.path.c_str(),
                   shard.error.c_str());
      continue;
    }
    std::printf("allocator stats:\n");
    PrintStatsText(shard.stats, shard.lists);
  }
  if (paths.size() > 1) {
    std::printf("=== aggregate over %zu shards ===\nallocator stats:\n",
                paths.size());
    PrintStatsText(aggregate, merged_lists);
  }
  return exit_code;
}

/// Runs the integrity check on one heap. In JSON mode the caller
/// assembles the per-shard array, so this emits only the object body.
int ShowCheck(const PersistentHeap& heap, bool json) {
  // Register the library's standard persistent types so reachability
  // can trace the built-in data structures; application-specific types
  // show up as leaves.
  tsp::pheap::TypeRegistry registry;
  tsp::workload::MapSession::RegisterAllTypes(&registry);  // maps + lists
  tsp::lockfree::LockFreeQueue::RegisterTypes(&registry);
  const tsp::pheap::CheckReport report =
      tsp::pheap::CheckHeap(heap, registry);
  if (json) {
    tsp::report::FindingSink sink(64);
    report.AppendTo(&sink);
    std::printf("{\"path\":\"%s\",\"ok\":%s,\"report\":%s}",
                tsp::report::JsonEscape(heap.region()->path()).c_str(),
                report.ok ? "true" : "false", sink.ToJson().c_str());
  } else {
    std::printf("%s\n", report.ToString().c_str());
  }
  return report.ok ? 0 : 1;
}

/// Per-ring summary of the undo log as recovery would decode it: the
/// ring window, its OCSes (and which one a crash left open), its store
/// records and armed counter slots, and every defect the decoder finds.
/// Exits 1 when the area or any ring is defective.
int ShowLog(const PersistentHeap& heap, bool verbose) {
  std::string error;
  const auto area = OpenAtlasArea(heap, &error);
  if (!area) {
    if (!error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("no Atlas log area (heap never used the mutex runtime)\n");
    return 0;
  }
  std::printf("Atlas log: %u rings x %" PRIu64 " entries, %u counter "
              "slots/thread (format v%u)\n",
              area->max_threads(), area->entries_per_thread(),
              area->counter_slots_per_thread(), area->header()->version);
  int exit_code = 0;
  for (std::uint32_t t = 0; t < area->max_threads(); ++t) {
    const tsp::atlas::ThreadLogHeader* slot = area->slot(t);
    const std::uint64_t head = slot->head.load(std::memory_order_relaxed);
    const std::uint64_t tail = slot->tail.load(std::memory_order_relaxed);
    std::uint64_t armed_slots = 0;
    for (std::uint32_t s = 0; s < area->counter_slots_per_thread(); ++s) {
      if (area->counter_slots(t)[s].addr_offset != 0) ++armed_slots;
    }
    if (tail == 0 && armed_slots == 0 &&
        slot->next_ocs.load(std::memory_order_relaxed) <= 1) {
      continue;  // never used
    }
    const tsp::atlas::DecodedRing ring =
        tsp::atlas::DecodeRing(*area, t, head, tail);
    std::printf("  ring %2u: head=%" PRIu64 " tail=%" PRIu64
                " committed_ocs=%" PRIu64 " stable_ocs=%" PRIu64
                " ocses=%zu",
                t, head, tail,
                slot->committed_ocs.load(std::memory_order_relaxed),
                slot->stable_ocs.load(std::memory_order_relaxed),
                ring.ocses.size());
    if (!ring.ocses.empty() && !ring.ocses.back().committed) {
      std::printf(" open_ocs=%" PRIu64, ring.ocses.back().id);
    }
    // Stamps are leased in per-thread blocks of the global counter, so
    // they are sparse and interleave across rings; within one ring they
    // must increase (a violation is a defect below).
    if (ring.stores > 0) {
      std::printf(" stores=%" PRIu64 " last_store_seq=%" PRIu64, ring.stores,
                  ring.last_store_seq);
    }
    if (armed_slots > 0) {
      std::printf(" armed_counter_slots=%" PRIu64, armed_slots);
    }
    std::printf("\n");
    for (const std::string& defect : ring.defects) {
      std::printf("    DEFECT: %s\n", defect.c_str());
      exit_code = 1;
    }
    if (!verbose || !ring.unusable.empty()) continue;
    for (std::uint64_t i = head; i < tail; ++i) {
      const tsp::atlas::LogEntry* entry = area->entry(t, i);
      std::printf("    [%" PRIu64 "] %-7s seq=%" PRIu64 " aux=%u addr=%"
                  PRIu64 " payload=0x%" PRIx64 "\n",
                  i, EntryKindName(entry->kind), entry->seq, entry->aux,
                  entry->addr_offset, entry->payload);
    }
    for (std::uint32_t s = 0; s < area->counter_slots_per_thread(); ++s) {
      const tsp::atlas::CounterSlot& cs = area->counter_slots(t)[s];
      if (cs.addr_offset == 0) continue;
      std::printf("    counter slot %3u: addr=%" PRIu64 " ocs=%" PRIu64
                  " seq=%" PRIu64 " old=0x%" PRIx64 "%s\n",
                  s, cs.addr_offset, cs.ocs_id, cs.seq, cs.old_value,
                  cs.version.load(std::memory_order_relaxed) % 2 != 0
                      ? " [TORN]"
                      : "");
    }
  }
  return exit_code;
}

/// OCSes the undo log shows as begun-but-uncommitted, as PackThreadOcs
/// ids — exactly the set recovery will roll back as "incomplete". Used
/// to cross-reference the flight recorder's open spans.
std::vector<std::uint64_t> UndoLogOpenOcses(const PersistentHeap& heap) {
  std::vector<std::uint64_t> open;
  std::string error;
  const auto area = OpenAtlasArea(heap, &error);
  if (!area) return open;
  for (std::uint32_t t = 0; t < area->max_threads(); ++t) {
    const tsp::atlas::ThreadLogHeader* slot = area->slot(t);
    const tsp::atlas::DecodedRing ring = tsp::atlas::DecodeRing(
        *area, t, slot->head.load(std::memory_order_relaxed),
        slot->tail.load(std::memory_order_relaxed));
    if (!ring.ocses.empty() && !ring.ocses.back().committed) {
      open.push_back(tsp::atlas::PackThreadOcs(
          static_cast<std::uint16_t>(t), ring.ocses.back().id));
    }
  }
  return open;
}

/// Decodes the flight recorder: per-thread rings merged into one
/// stamp-ordered stream, plus the open OCS spans cross-referenced
/// against the undo log's own begun-but-uncommitted OCSes. Shows the
/// stream tail by default; -v dumps every surviving event. Exits 1 with
/// TraceArea::Check's reason for an area of another version or a torn
/// geometry.
int ShowTrace(const PersistentHeap& heap, bool json, bool verbose) {
  const tsp::obs::TraceReader reader(heap.runtime_area(),
                                     heap.runtime_area_size());
  if (reader.status().code() == tsp::StatusCode::kCorruption) {
    std::fprintf(stderr, "%s\n", reader.status().message().c_str());
    return 1;
  }
  const std::vector<std::uint64_t> log_open = UndoLogOpenOcses(heap);
  const std::vector<tsp::obs::OpenOcsSpan> spans =
      reader.valid() ? reader.OpenOcsSpans()
                     : std::vector<tsp::obs::OpenOcsSpan>{};
  auto in_log = [&log_open](std::uint64_t packed) {
    return std::find(log_open.begin(), log_open.end(), packed) !=
           log_open.end();
  };
  auto in_spans = [&spans](std::uint64_t packed) {
    for (const auto& span : spans) {
      if (span.packed_ocs == packed) return true;
    }
    return false;
  };
  // The undo log's open OCSes are reported with or without a recorder.
  auto print_log_open_json = [&] {
    std::printf("\"undo_log_open\":[");
    bool comma = false;
    for (const std::uint64_t packed : log_open) {
      std::printf("%s{\"thread\":%u,\"ocs\":%" PRIu64
                  ",\"in_recorder\":%s}",
                  comma ? "," : "", tsp::atlas::UnpackThread(packed),
                  tsp::atlas::UnpackOcs(packed),
                  in_spans(packed) ? "true" : "false");
      comma = true;
    }
    std::printf("]");
  };
  if (json && !reader.valid()) {
    std::printf("{\"path\":\"%s\",\"recorder\":false,",
                tsp::report::JsonEscape(heap.region()->path()).c_str());
    print_log_open_json();
    std::printf("}");
    return 0;
  }
  if (!reader.valid()) {
    std::printf("no flight recorder (tiny runtime area, or tracing "
                "disabled when the heap ran)\n");
    for (const std::uint64_t packed : log_open) {
      std::printf("  undo-log open OCS: thread=%u ocs=%" PRIu64 "\n",
                  tsp::atlas::UnpackThread(packed),
                  tsp::atlas::UnpackOcs(packed));
    }
    return 0;
  }
  const std::vector<tsp::obs::TraceEvent> merged = reader.MergedEvents();
  constexpr std::size_t kDefaultTail = 64;
  const std::size_t first =
      (verbose || merged.size() <= kDefaultTail) ? 0
                                                 : merged.size() - kDefaultTail;

  if (json) {
    std::printf("{\"path\":\"%s\",\"recorder\":true,"
                "\"events_recorded\":%" PRIu64 ",\"events_surviving\":%zu,",
                tsp::report::JsonEscape(heap.region()->path()).c_str(),
                reader.EventsRecorded(), merged.size());
    std::printf("\"open_spans\":[");
    bool comma = false;
    for (const auto& span : spans) {
      std::printf("%s{\"ring\":%u,\"thread\":%u,\"ocs\":%" PRIu64
                  ",\"lock\":%u,\"begin_stamp\":%" PRIu64
                  ",\"in_undo_log\":%s}",
                  comma ? "," : "", span.ring_id,
                  tsp::atlas::UnpackThread(span.packed_ocs),
                  tsp::atlas::UnpackOcs(span.packed_ocs), span.lock_id,
                  span.begin_stamp, in_log(span.packed_ocs) ? "true" : "false");
      comma = true;
    }
    std::printf("],");
    print_log_open_json();
    std::printf(",\"events\":[");
    comma = false;
    for (std::size_t i = first; i < merged.size(); ++i) {
      const tsp::obs::TraceEvent& e = merged[i];
      std::printf("%s{\"stamp\":%" PRIu64 ",\"ring\":%u,\"code\":\"%s\","
                  "\"arg0\":%" PRIu64 ",\"arg1\":%" PRIu64 ",\"aux\":%u}",
                  comma ? "," : "", e.stamp, e.thread_id,
                  tsp::obs::EventCodeName(
                      static_cast<tsp::obs::EventCode>(e.code)),
                  e.arg0, e.arg1, e.aux);
      comma = true;
    }
    std::printf("]}");
    return 0;
  }

  std::printf("flight recorder: %" PRIu64 " events recorded, %zu surviving "
              "in the rings\n",
              reader.EventsRecorded(), merged.size());
  for (const auto& span : spans) {
    std::printf("  open OCS span: ring=%u thread=%u ocs=%" PRIu64
                " lock=%u begin_stamp=%" PRIu64 " %s\n",
                span.ring_id, tsp::atlas::UnpackThread(span.packed_ocs),
                tsp::atlas::UnpackOcs(span.packed_ocs), span.lock_id,
                span.begin_stamp,
                in_log(span.packed_ocs)
                    ? "[undo log agrees: uncommitted at crash]"
                    : "[no matching open OCS in the undo log]");
  }
  for (const std::uint64_t packed : log_open) {
    if (in_spans(packed)) continue;
    std::printf("  undo-log open OCS without a recorder span: thread=%u "
                "ocs=%" PRIu64 " (ring wrapped past its begin event?)\n",
                tsp::atlas::UnpackThread(packed),
                tsp::atlas::UnpackOcs(packed));
  }
  if (merged.empty()) return 0;
  if (first > 0) {
    std::printf("  last %zu events (-v for all %zu):\n",
                merged.size() - first, merged.size());
  } else {
    std::printf("  events:\n");
  }
  for (std::size_t i = first; i < merged.size(); ++i) {
    const tsp::obs::TraceEvent& e = merged[i];
    std::printf("    [ring %2u] stamp=%" PRIu64 " %-17s arg0=%" PRIu64
                " arg1=%" PRIu64 " aux=%u\n",
                e.thread_id, e.stamp,
                tsp::obs::EventCodeName(
                    static_cast<tsp::obs::EventCode>(e.code)),
                e.arg0, e.arg1, e.aux);
  }
  return 0;
}

/// Robust-lock and slot-claim state of one heap (DESIGN.md §12): every
/// claimed Atlas thread slot with its stamped (pid, tid, birth) identity
/// and a liveness verdict, every held robust lock word resolved through
/// its owner token to that identity, and the persistent robust-table
/// counters. Exit code 1 when any held lock is *wedged* — its owner can
/// never release it (garbage token, freed slot, or dead claimant).
int ShowRobustLocks(const PersistentHeap& heap, bool json) {
  std::string error;
  const auto area_ptr = OpenAtlasArea(heap, &error);
  if (!area_ptr || area_ptr->robust_lock_count() == 0) {
    if (json) {
      std::printf("{\"path\":\"%s\",\"robust\":false}",
                  tsp::report::JsonEscape(heap.region()->path()).c_str());
    } else if (area_ptr) {
      std::printf("no robust lock table (runtime area too small for the "
                  "carve-out)\n");
    } else if (error.empty()) {
      std::printf("no Atlas log area (heap never used the mutex runtime)\n");
    } else {
      std::fprintf(stderr, "%s\n", error.c_str());
    }
    return error.empty() ? 0 : 1;
  }
  const tsp::atlas::AtlasArea& area = *area_ptr;

  struct Claim {
    std::uint32_t slot;
    std::uint32_t state;
    std::uint32_t pid;
    std::uint32_t tid;
    std::uint64_t birth;
    tsp::Liveness liveness;
  };
  std::vector<Claim> claims;
  for (std::uint32_t t = 0; t < area.max_threads(); ++t) {
    const tsp::atlas::ThreadLogHeader* slot = area.slot(t);
    const std::uint32_t state =
        slot->in_use.load(std::memory_order_relaxed);
    if (state == tsp::atlas::kSlotFree) continue;
    Claim claim;
    claim.slot = t;
    claim.state = state;
    claim.pid = slot->owner_pid.load(std::memory_order_relaxed);
    claim.tid = slot->owner_tid;
    claim.birth = slot->owner_birth.load(std::memory_order_relaxed);
    // An unstamped claim (pid 0) is mid-claim or pre-identity: treated
    // as alive everywhere, surfaced as such here.
    claim.liveness = claim.pid == 0
                         ? tsp::Liveness::kAlive
                         : tsp::CheckLiveness(claim.pid, claim.birth);
    claims.push_back(claim);
  }

  struct Held {
    std::uint32_t word;
    std::uint64_t token;
    bool wedged;
    std::string verdict;  // human-readable owner resolution
    const Claim* claim;   // resolved slot claim, or null
  };
  std::vector<Held> held;
  for (std::uint32_t w = 0; w < area.robust_lock_count(); ++w) {
    const std::uint64_t token =
        area.robust_lock(w)->owner.load(std::memory_order_relaxed);
    if (token == 0) continue;
    Held h;
    h.word = w;
    h.token = token;
    h.claim = nullptr;
    if (token > area.max_threads()) {
      h.wedged = true;
      h.verdict = "token exceeds slot count";
    } else {
      const std::uint32_t slot_index =
          static_cast<std::uint32_t>(token - 1);
      for (const Claim& claim : claims) {
        if (claim.slot == slot_index) h.claim = &claim;
      }
      if (h.claim == nullptr) {
        h.wedged = true;
        h.verdict = "owner slot is free";
      } else if (h.claim->pid != 0 &&
                 h.claim->liveness != tsp::Liveness::kAlive) {
        h.wedged = true;
        h.verdict = tsp::LivenessName(h.claim->liveness);
      } else {
        h.wedged = false;
        h.verdict = "alive";
      }
    }
    held.push_back(h);
  }
  std::uint64_t wedged = 0;
  for (const Held& h : held) {
    if (h.wedged) ++wedged;
  }
  const tsp::atlas::RobustTableHeader* table = area.robust_header();

  if (json) {
    std::printf("{\"path\":\"%s\",\"robust\":true,\"lock_count\":%u,"
                "\"wedged\":%" PRIu64 ",",
                tsp::report::JsonEscape(heap.region()->path()).c_str(),
                area.robust_lock_count(), wedged);
    std::printf("\"counters\":{\"robust_steals\":%" PRIu64
                ",\"dead_owner_rollbacks\":%" PRIu64
                ",\"slots_harvested\":%" PRIu64 "},",
                table->robust_steals.load(std::memory_order_relaxed),
                table->dead_owner_rollbacks.load(std::memory_order_relaxed),
                table->slots_harvested.load(std::memory_order_relaxed));
    std::printf("\"slots\":[");
    bool comma = false;
    for (const Claim& claim : claims) {
      std::printf("%s{\"slot\":%u,\"state\":\"%s\",\"pid\":%u,\"tid\":%u,"
                  "\"birth\":%" PRIu64 ",\"liveness\":\"%s\"}",
                  comma ? "," : "", claim.slot,
                  claim.state == tsp::atlas::kSlotHarvesting ? "harvesting"
                                                             : "claimed",
                  claim.pid, claim.tid, claim.birth,
                  claim.pid == 0 ? "unstamped"
                                 : tsp::LivenessName(claim.liveness));
      comma = true;
    }
    std::printf("],\"held\":[");
    comma = false;
    for (const Held& h : held) {
      std::printf("%s{\"word\":%u,\"token\":%" PRIu64 ",\"slot\":%" PRId64
                  ",\"pid\":%u,\"tid\":%u,\"verdict\":\"%s\",\"wedged\":%s}",
                  comma ? "," : "", h.word, h.token,
                  h.claim != nullptr
                      ? static_cast<std::int64_t>(h.claim->slot)
                      : std::int64_t{-1},
                  h.claim != nullptr ? h.claim->pid : 0,
                  h.claim != nullptr ? h.claim->tid : 0,
                  tsp::report::JsonEscape(h.verdict).c_str(),
                  h.wedged ? "true" : "false");
      comma = true;
    }
    std::printf("]}");
    return wedged > 0 ? 1 : 0;
  }

  std::printf("robust lock table: %u words, %zu held, %" PRIu64
              " wedged\n",
              area.robust_lock_count(), held.size(), wedged);
  std::printf("  counters: steals=%" PRIu64 " dead_owner_rollbacks=%"
              PRIu64 " slots_harvested=%" PRIu64 "\n",
              table->robust_steals.load(std::memory_order_relaxed),
              table->dead_owner_rollbacks.load(std::memory_order_relaxed),
              table->slots_harvested.load(std::memory_order_relaxed));
  for (const Claim& claim : claims) {
    std::printf("  slot %2u [%s]: pid=%u tid=%u birth=%" PRIu64 " (%s)\n",
                claim.slot,
                claim.state == tsp::atlas::kSlotHarvesting ? "harvesting"
                                                           : "claimed",
                claim.pid, claim.tid, claim.birth,
                claim.pid == 0 ? "unstamped; assumed alive"
                               : tsp::LivenessName(claim.liveness));
  }
  for (const Held& h : held) {
    std::printf("  lock word %3u: owner token=%" PRIu64, h.word, h.token);
    if (h.claim != nullptr) {
      std::printf(" -> slot %u pid=%u tid=%u", h.claim->slot, h.claim->pid,
                  h.claim->tid);
    }
    std::printf(" [%s]%s\n", h.verdict.c_str(),
                h.wedged ? " WEDGED (owner can never release)" : "");
  }
  if (held.empty()) std::printf("  no robust locks held\n");
  return wedged > 0 ? 1 : 0;
}

/// Loads and prints a TSPRace lock-order sidecar (saved via
/// TSP_RACE_GRAPH=<path> or RaceDetector::SaveLockGraph). Accepts the
/// sidecar file itself or a heap path with a `<path>.lockgraph` sibling.
/// Heap files instead get their robust-lock/slot-claim state
/// (ShowRobustLocks). Exit code 1 when any lock-order cycle exists — a
/// deadlock risk, and for cross-shard cycles a falsifier of "recoveries
/// commute" — or when any robust lock is wedged.
int RunLocks(const std::vector<std::string>& paths, bool json) {
  int exit_code = 0;
  bool first = true;
  if (json) std::printf("[");
  for (const std::string& path : paths) {
    // A persistent heap file: report its robust-lock/slot-claim state.
    if (auto heap = PersistentHeap::OpenReadOnly(path); heap.ok()) {
      if (json && !first) std::printf(",");
      if (!json && paths.size() > 1) {
        std::printf("%s=== %s ===\n", first ? "" : "\n", path.c_str());
      }
      first = false;
      const int rc = ShowRobustLocks(**heap, json);
      if (rc != 0) exit_code = rc;
      continue;
    }
    tsp::analysis::LockOrderGraph graph;
    std::string loaded_from = path;
    std::string error;
    if (!graph.LoadFrom(path, &error)) {
      const std::string sidecar = path + ".lockgraph";
      std::string sidecar_error;
      if (graph.LoadFrom(sidecar, &sidecar_error)) {
        loaded_from = sidecar;
      } else {
        if (json) {
          std::printf("%s{\"path\":\"%s\",\"ok\":false,\"error\":\"%s\"}",
                      first ? "" : ",",
                      tsp::report::JsonEscape(path).c_str(),
                      tsp::report::JsonEscape(error).c_str());
          first = false;
        } else {
          std::fprintf(stderr, "cannot load lock graph from %s: %s\n",
                       path.c_str(), error.c_str());
        }
        exit_code = 1;
        continue;
      }
    }
    const std::vector<tsp::analysis::LockNode> nodes = graph.Nodes();
    const std::vector<tsp::analysis::LockEdge> edges = graph.Edges();
    const std::vector<tsp::analysis::LockCycle> cycles = graph.FindCycles();
    if (!cycles.empty()) exit_code = 1;

    if (json) {
      std::printf("%s{\"path\":\"%s\",\"ok\":true,\"nodes\":[",
                  first ? "" : ",",
                  tsp::report::JsonEscape(loaded_from).c_str());
      first = false;
      bool comma = false;
      for (const auto& node : nodes) {
        std::printf("%s{\"addr\":\"0x%" PRIx64 "\",\"lock_id\":%u,"
                    "\"runtime\":%" PRIu64 ",\"acquisitions\":%" PRIu64 "}",
                    comma ? "," : "", node.addr, node.lock_id, node.runtime,
                    node.acquisitions);
        comma = true;
      }
      std::printf("],\"edges\":[");
      comma = false;
      for (const auto& edge : edges) {
        std::printf("%s{\"from\":\"0x%" PRIx64 "\",\"to\":\"0x%" PRIx64
                    "\",\"count\":%" PRIu64 ",\"cross_shard\":%s}",
                    comma ? "," : "", edge.from, edge.to, edge.count,
                    edge.cross_shard ? "true" : "false");
        comma = true;
      }
      std::printf("],\"cycles\":[");
      comma = false;
      for (const auto& cycle : cycles) {
        std::printf("%s{\"cross_shard\":%s,\"nodes\":[",
                    comma ? "," : "", cycle.cross_shard ? "true" : "false");
        bool inner = false;
        for (const std::uint64_t addr : cycle.nodes) {
          std::printf("%s\"0x%" PRIx64 "\"", inner ? "," : "", addr);
          inner = true;
        }
        std::printf("]}");
        comma = true;
      }
      std::printf("],\"counters\":{");
      comma = false;
      for (const auto& [name, value] : graph.Counters()) {
        std::printf("%s\"%s\":%" PRIu64, comma ? "," : "",
                    tsp::report::JsonEscape(name).c_str(), value);
        comma = true;
      }
      std::printf("}}");
      continue;
    }

    if (paths.size() > 1) std::printf("=== %s ===\n", loaded_from.c_str());
    std::printf("lock-order graph: %zu locks, %zu ordered edges\n",
                nodes.size(), edges.size());
    for (const auto& [name, value] : graph.Counters()) {
      std::printf("  %-28s %" PRIu64 "\n", (name + ":").c_str(), value);
    }
    for (const auto& node : nodes) {
      std::printf("  lock 0x%" PRIx64 " id=%u runtime=%" PRIu64
                  " acquisitions=%" PRIu64 "\n",
                  node.addr, node.lock_id, node.runtime, node.acquisitions);
    }
    for (const auto& edge : edges) {
      std::printf("  edge 0x%" PRIx64 " -> 0x%" PRIx64 " count=%" PRIu64
                  "%s\n",
                  edge.from, edge.to, edge.count,
                  edge.cross_shard ? " [cross-shard]" : "");
    }
    if (cycles.empty()) {
      std::printf("  no lock-order cycles\n");
    }
    for (const auto& cycle : cycles) {
      std::string chain;
      for (const std::uint64_t addr : cycle.nodes) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%" PRIx64, addr);
        if (!chain.empty()) chain += " -> ";
        chain += buf;
      }
      if (!cycle.nodes.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%" PRIx64, cycle.nodes.front());
        chain += std::string(" -> ") + buf;
      }
      std::printf("  CYCLE: %s%s\n", chain.c_str(),
                  cycle.cross_shard
                      ? " [cross-shard: falsifies recovery commutation]"
                      : " [deadlock risk]");
    }
  }
  if (json) std::printf("]\n");
  return exit_code;
}

bool IsCommand(const std::string& word) {
  return word == "header" || word == "check" || word == "log" ||
         word == "stats" || word == "trace" || word == "locks";
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s {header | stats [--json] | check "
               "[--json] | log [-v] | trace [--json] [-v] | "
               "locks [--json]} <heap-file> [<heap-file>...]\n"
               "       (locks takes heap files — robust-lock owners, "
               "slot claims, liveness verdicts, exit 1 on wedged locks — "
               "or TSPRace lockgraph sidecars saved via "
               "TSP_RACE_GRAPH=<path>)\n"
               "       %s <heap-file> <command> [flags]   (historical "
               "order)\n",
               prog, prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command;
  std::vector<std::string> paths;
  bool json = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (command.empty() && IsCommand(arg)) {
      command = arg;
    } else if (!IsCommand(arg)) {
      paths.push_back(arg);
    } else {
      std::fprintf(stderr, "stray argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (command.empty() || paths.empty()) return Usage(argv[0]);

  // These aggregate over the whole shard set rather than iterating.
  if (command == "stats") return RunStats(paths, json);
  // `locks` reads lockgraph sidecars, not heap files.
  if (command == "locks") return RunLocks(paths, json);

  const bool json_array = json && (command == "check" || command == "trace");
  int exit_code = 0;
  bool first = true;
  if (json_array) std::printf("[");
  for (const std::string& path : paths) {
    auto heap = PersistentHeap::OpenReadOnly(path);
    if (!heap.ok()) {
      if (json_array) {
        std::printf("%s{\"path\":\"%s\",\"ok\":false,\"error\":\"%s\"}",
                    first ? "" : ",",
                    tsp::report::JsonEscape(path).c_str(),
                    tsp::report::JsonEscape(
                        heap.status().ToString()).c_str());
        first = false;
      } else {
        std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                     heap.status().ToString().c_str());
      }
      exit_code = 1;
      continue;
    }
    if (json_array) {
      if (!first) std::printf(",");
    } else if (paths.size() > 1) {
      // Attribute every block to its shard in multi-file runs.
      std::printf("%s=== %s ===\n", first ? "" : "\n", path.c_str());
    }
    first = false;
    int rc = 2;
    if (command == "header") rc = ShowHeader(**heap);
    if (command == "check") rc = ShowCheck(**heap, json);
    if (command == "log") rc = ShowLog(**heap, verbose);
    if (command == "trace") rc = ShowTrace(**heap, json, verbose);
    if (rc != 0) exit_code = rc;
  }
  if (json_array) std::printf("]\n");
  return exit_code;
}
