// Copyright 2026 The TSP Authors.
// Persistent layout of the Atlas-style undo-log area.
//
// The log lives in the persistent region's runtime area, so log entries
// written before a crash are recoverable under exactly the same TSP
// guarantee as application data. Each registered thread owns a ring of
// fixed-size entries; undo records carry stamps leased in per-thread
// blocks from a global sequence counter (in the RegionHeader). Stamps
// are therefore *sparse* and only partially ordered across threads, but
// a Lamport-clock resync at every lock acquisition (see
// AtlasThread::OnAcquire) guarantees the order recovery needs: along
// every lock release→acquire chain, stamps strictly increase, so undo
// records racing on the same location replay correctly in reverse-stamp
// order.
//
// Publication protocol (crash safety without flushes, given TSP's
// strict-prefix-of-stores guarantee): a batch of entries' bytes is
// fully written *before* the owning ring's tail index is advanced past
// it. Recovery trusts only entries below the persisted tail, so a crash
// mid-append simply drops the torn batch.
//
// One format version, one reader: DecodeRing is the only code that
// interprets a ring's entries. Recovery, dead-slot harvest, CheckHeap
// and tsp_inspect all read the log through it.

#ifndef TSP_ATLAS_LOG_LAYOUT_H_
#define TSP_ATLAS_LOG_LAYOUT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace_layout.h"

namespace tsp::atlas {

inline constexpr std::uint64_t kAtlasMagic = 0x31474F4C4C54414DULL;

/// Kinds of log entries. OCS boundaries are not entries of their own:
/// an acquire at nesting depth 0 opens an OCS and the release that
/// returns the depth to 0 commits it (DecodeRing).
enum class EntryKind : std::uint8_t {
  kInvalid = 0,
  /// Mutex acquired inside an OCS; addr_offset = OCS id, aux = lock id,
  /// payload = packed (thread, ocs) of the previous releaser (0 = none):
  /// a dependency edge for cascading rollback.
  kAcquire,
  /// Mutex released; aux = lock id, payload = current OCS id, seq = the
  /// releaser's sequence-stamp frontier at release time (diagnostics).
  kRelease,
  /// Undo record: addr_offset = region offset of the stored-to word,
  /// payload = the *old* value (1..8 bytes, in `size`).
  kStore,
  /// Allocation inside an OCS; addr_offset = block payload offset.
  /// Rollback does not undo allocations — the recovery GC reclaims
  /// anything the rolled-back OCS never published.
  kAlloc,
};

/// Highest EntryKind this build can decode. A log written by a newer
/// producer is reported as such, not as generic corruption.
inline constexpr std::uint8_t kMaxKnownEntryKind =
    static_cast<std::uint8_t>(EntryKind::kAlloc);

/// Packed (thread id, OCS id) used for dependency edges; 0 = none.
constexpr std::uint64_t PackThreadOcs(std::uint16_t thread_id,
                                      std::uint64_t ocs_id) {
  return (static_cast<std::uint64_t>(thread_id) << 48) |
         (ocs_id & ((1ULL << 48) - 1));
}
constexpr std::uint16_t UnpackThread(std::uint64_t packed) {
  return static_cast<std::uint16_t>(packed >> 48);
}
constexpr std::uint64_t UnpackOcs(std::uint64_t packed) {
  return packed & ((1ULL << 48) - 1);
}

/// One undo-log record. 32 bytes; two per cache line.
struct LogEntry {
  std::uint64_t seq;         // leased stamp (kStore), frontier (kRelease)
  std::uint64_t addr_offset; // target region offset (kStore/kAlloc)
  std::uint64_t payload;     // old value / OCS id / dependency
  EntryKind kind;
  std::uint8_t size;         // store width in bytes (kStore only)
  std::uint16_t thread_id;
  std::uint32_t aux;         // lock id (kAcquire/kRelease), type (kAlloc)
};

static_assert(sizeof(LogEntry) == 32);

/// ThreadLogHeader::in_use states. Slots are CAS-claimed persistent
/// objects shared by every process attached to the domain; the
/// harvesting state makes dead-slot recovery an exactly-once handoff
/// (see AtlasRuntime::HarvestDeadSlots).
inline constexpr std::uint32_t kSlotFree = 0;
inline constexpr std::uint32_t kSlotClaimed = 1;
inline constexpr std::uint32_t kSlotHarvesting = 2;

/// Per-thread ring header. head/tail are entry counts that only move
/// forward, except that a fast-path commit rewinds both to its OCS's
/// begin position; the entry at index i lives at entries[i & (capacity -
/// 1)] (AtlasArea::entry), the capacity being a power of two.
struct alignas(64) ThreadLogHeader {
  /// kSlotFree / kSlotClaimed / kSlotHarvesting. Claims CAS free→claimed
  /// and stamp the owner fields below; a crashed process leaves its
  /// slots claimed with a dead (pid, birth), which is how survivors and
  /// attach-time recovery find them. Full recovery resets every slot.
  std::atomic<std::uint32_t> in_use;
  std::uint32_t thread_id;
  /// Oldest retained entry (advanced by a stability pass past OCSes whose
  /// logs can never be needed again, and set to the rewound tail by a
  /// fast-path commit). Never passes tail.
  std::atomic<std::uint64_t> head;
  /// Next append position. Published with release order after the entry
  /// bytes are written; a fast-path commit rewinds it to the OCS's begin
  /// position, dropping the OCS's entries.
  std::atomic<std::uint64_t> tail;
  /// Highest OCS id that committed (its outermost release ran).
  std::atomic<std::uint64_t> committed_ocs;
  /// Highest OCS id that is *stable*: committed and transitively
  /// dependent only on stable OCSes. Stable OCS logs are trimmed and
  /// can never be rolled back.
  std::atomic<std::uint64_t> stable_ocs;
  /// Next OCS id to hand out (OCS ids are per-thread, starting at 1).
  std::atomic<std::uint64_t> next_ocs;
  /// Claimant identity: the kernel pid + tid of the claiming thread
  /// and the process's birth epoch (/proc/<pid>/stat start-time).
  /// (pid, birth, tid) is unique for the life of a boot, so slot
  /// ownership survives both pid reuse across processes and tid reuse
  /// *within* one (a recycled kernel tid used to be able to collide
  /// with a not-yet-freed slot of an exited thread). A harvester
  /// re-stamps these with its own identity while in_use ==
  /// kSlotHarvesting so a crashed harvest is itself detectable and
  /// restartable.
  std::atomic<std::uint32_t> owner_pid;
  std::uint32_t owner_tid;
  std::atomic<std::uint64_t> owner_birth;
};

static_assert(sizeof(ThreadLogHeader) == 64);

/// Persistent FliT-style "logged counter" slot (one cache line). Each
/// thread owns a private direct-mapped array of these; a slot *is* an
/// undo record at a fixed location for a hot, repeatedly-stored word.
/// Re-arming a slot replaces a 32-byte ring append with one L1-resident
/// line write, and a same-OCS hit captures nothing: a single
/// predictable branch.
///
/// Overwrite rule (the correctness core): a slot may be claimed or
/// re-armed only when its current occupant OCS is *stable* (can never
/// be rolled back), so the overwritten old value can never be needed.
/// Unstable occupants force the store back onto the ring path.
///
/// `version` is a seqlock written only by the owning thread: odd while
/// the fields are being rewritten, even when consistent. Recovery skips
/// odd slots — safe, because the slot update is ordered before the
/// guarded store it protects, so a torn slot implies that store never
/// executed.
struct alignas(64) CounterSlot {
  std::atomic<std::uint64_t> version;
  /// Word-aligned region offset of the guarded word; 0 = empty.
  std::uint64_t addr_offset;
  /// The word's old (pre-OCS) 8-byte value.
  std::uint64_t old_value;
  /// Owning OCS id (per-thread, compared against stable_ocs).
  std::uint64_t ocs_id;
  /// Sequence stamp, ordering the slot against ring undo records.
  std::uint64_t seq;
  std::uint64_t reserved_[3];
};

static_assert(sizeof(CounterSlot) == 64);

/// Per-lock dependency channel, written by each releaser while it still
/// holds the mutex. `last_release` identifies the previous releasing
/// OCS (the rollback dependency edge); `release_seq` carries the
/// releaser's sequence-stamp frontier so acquirers keep leased stamps
/// consistent with lock order (Lamport-clock resync — see
/// AtlasThread::OnAcquire). For plain single-process PMutexes this is a
/// volatile DRAM member (dependencies matter only within a session; the
/// log records them persistently); for robust locks it is embedded in
/// the persistent RobustLockWord so release→acquire chains that span
/// processes still carry the edge and the frontier.
struct PLockWord {
  std::atomic<std::uint64_t> last_release{0};
  std::atomic<std::uint64_t> release_seq{0};
};

/// Flag folded into PLockWord::last_release (bit 47, far above any real
/// OCS id): the releasing OCS was already stable when it released, so
/// acquirers skip the dependency edge without touching the releaser's
/// log header — on contended locks that read is a guaranteed cross-core
/// cache miss inside the critical section. The bit never reaches the
/// ring: a stable releaser records no dependency at all. Safe because
/// stability is monotone and the releaser sets the bit only after its
/// fast-path rewind, which happens before the mutex can change hands.
inline constexpr std::uint64_t kLastReleaseStable = 1ULL << 47;

/// One robust lock word, the TSP analog of a robust futex word.
/// `owner` holds the claiming thread's *slot token* — its Atlas
/// slot index + 1 (0 = unowned) — not a raw pid: liveness is resolved
/// through the slot header's (owner_pid, owner_birth, owner_tid) stamp,
/// which is written before any lock can be taken and cannot change
/// while the slot holds a lock. Stamping the pid directly in the lock
/// word would race its own birth-epoch store and misjudge a live owner
/// as pid-reused during the window.
///
/// A survivor that finds `owner` naming a dead slot rolls the dead
/// owner's open OCS back from its undo log (HarvestDeadOwner), clears
/// the word, and only then takes the lock — stealing without rollback
/// would publish the dead writer's torn updates.
struct alignas(64) RobustLockWord {
  std::atomic<std::uint64_t> owner;
  /// The cross-process dependency/frontier channel (see PLockWord).
  PLockWord dependency;
  std::uint64_t reserved_[5];
};

static_assert(sizeof(RobustLockWord) == 64);

/// Header of the robust lock table, one cache line before
/// the RobustLockWord array. The counters are persistent and shared by
/// every attached process — a killed worker's steals stay countable by
/// the parent, which is how bench_table1 --procs reports
/// atlas.robust_steals without a survivor interview.
struct alignas(64) RobustTableHeader {
  std::atomic<std::uint64_t> robust_steals;
  std::atomic<std::uint64_t> dead_owner_rollbacks;
  std::atomic<std::uint64_t> slots_harvested;
  std::uint64_t reserved_[5];
};

static_assert(sizeof(RobustTableHeader) == 64);

/// The on-media format version, and the only one this build reads:
/// an area stamped with any other version is refused (AtlasArea::Check
/// names both versions), and a clean Initialize reformats it. Version 5
/// made the ring capacity a power of two.
inline constexpr std::uint32_t kAtlasFormatVersion = 5;

/// Header of the Atlas area, placed at the start of the region's
/// runtime area.
struct AtlasAreaHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t max_threads;
  /// Ring capacity, a power of two.
  std::uint64_t entries_per_thread;
  /// Offset (from the Atlas area base) of the ThreadLogHeader array;
  /// the entry rings follow it.
  std::uint64_t slots_offset;
  std::uint64_t entries_offset;
  /// Offset of the CounterSlot arrays (0 = none).
  std::uint64_t counter_slots_offset;
  /// CounterSlots per thread (0 disables the fast path).
  std::uint32_t counter_slots_per_thread;
  /// RobustLockWords in the table (0 = robust locking off).
  std::uint32_t robust_lock_count;
  /// Offset of the RobustTableHeader, immediately followed by the
  /// RobustLockWord array (0 = none).
  std::uint64_t robust_locks_offset;
};

inline constexpr std::uint32_t kDefaultMaxThreads = 64;

/// CounterSlots carved out per thread when the area is large enough
/// (Format degrades to 0 slots rather than starving the rings).
inline constexpr std::uint32_t kDefaultCounterSlotsPerThread = 256;

/// RobustLockWords carved out when the area is large enough (Format
/// degrades to 0 rather than starving the rings). Lock users bind by
/// index (maps::MutexHashMap binds stripe i to word i), so the count
/// bounds the robust stripes per heap.
inline constexpr std::uint32_t kDefaultRobustLockCount = 256;

/// Bytes of a heap's runtime area that belong to the Atlas area: the
/// flight recorder owns the tail (obs::TraceReservationBytes). Every
/// writer and reader of the area bounds it by this size, so a header
/// whose tables reach into the trace reservation fails validation
/// everywhere instead of having trace events read as log entries.
inline std::size_t AtlasAreaSize(std::size_t runtime_area_size) {
  return runtime_area_size - obs::TraceReservationBytes(runtime_area_size);
}

/// Accessors over a formatted Atlas area.
class AtlasArea {
 public:
  /// Formats `size` bytes at `base` for `max_threads` rings and returns
  /// the entries-per-thread capacity: the largest power of two that
  /// fits (0 if the area is too small).
  static std::uint64_t Format(void* base, std::size_t size,
                              std::uint32_t max_threads);

  /// True when `size` bytes at `base` hold an area of exactly
  /// kAtlasFormatVersion whose every table fits inside `size`.
  static bool Validate(const void* base, std::size_t size);

  /// Validate, with the reason when it fails: kNotFound when the bytes
  /// carry no Atlas magic (never formatted — nothing to roll back),
  /// kCorruption naming both versions for an area of another format
  /// version, kCorruption for a malformed geometry (including a ring
  /// capacity that is not a power of two).
  static Status Check(const void* base, std::size_t size);

  AtlasArea(void* base, std::size_t size)
      : base_(static_cast<char*>(base)), size_(size) {}

  AtlasAreaHeader* header() const {
    return reinterpret_cast<AtlasAreaHeader*>(base_);
  }
  std::uint32_t max_threads() const { return header()->max_threads; }
  std::uint64_t entries_per_thread() const {
    return header()->entries_per_thread;
  }

  ThreadLogHeader* slot(std::uint32_t thread_id) const {
    return reinterpret_cast<ThreadLogHeader*>(base_ +
                                              header()->slots_offset) +
           thread_id;
  }

  /// CounterSlots per thread (0 on areas too small for the carve-out).
  std::uint32_t counter_slots_per_thread() const {
    return header()->counter_slots_per_thread;
  }

  /// Base of thread `thread_id`'s CounterSlot array; only valid when
  /// counter_slots_per_thread() > 0.
  CounterSlot* counter_slots(std::uint32_t thread_id) const {
    return reinterpret_cast<CounterSlot*>(base_ +
                                          header()->counter_slots_offset) +
           static_cast<std::uint64_t>(thread_id) *
               header()->counter_slots_per_thread;
  }

  /// RobustLockWords in the table (0 on areas too small for the
  /// carve-out; robust locking is then off for the heap).
  std::uint32_t robust_lock_count() const {
    return header()->robust_lock_count;
  }

  /// The robust table header; only valid when robust_lock_count() > 0.
  RobustTableHeader* robust_header() const {
    return reinterpret_cast<RobustTableHeader*>(base_ +
                                                header()->robust_locks_offset);
  }

  /// Robust lock word `index`; only valid when index <
  /// robust_lock_count().
  RobustLockWord* robust_lock(std::uint32_t index) const {
    return reinterpret_cast<RobustLockWord*>(
               base_ + header()->robust_locks_offset +
               sizeof(RobustTableHeader)) +
           index;
  }

  /// First entry of thread `thread_id`'s ring.
  LogEntry* ring(std::uint32_t thread_id) const {
    return reinterpret_cast<LogEntry*>(base_ + header()->entries_offset) +
           static_cast<std::uint64_t>(thread_id) *
               header()->entries_per_thread;
  }

  /// Ring capacity minus one: position `index` lives at
  /// ring(t)[index & ring_mask()]. Every writer and reader indexes the
  /// ring through this mask.
  std::uint64_t ring_mask() const { return header()->entries_per_thread - 1; }

  /// Entry storage for ring position `index` of thread `thread_id`.
  LogEntry* entry(std::uint32_t thread_id, std::uint64_t index) const {
    return ring(thread_id) + (index & ring_mask());
  }

 private:
  char* base_;
  std::size_t size_;
};

/// One undo record: restoring `size` bytes of `old_value` at region
/// offset `addr_offset` undoes a guarded store. Comes from a kStore
/// ring entry or from an armed counter slot.
struct UndoRecord {
  std::uint64_t seq;
  std::uint64_t addr_offset;
  std::uint64_t old_value;
  std::uint32_t size;
};

/// One outermost critical section of a ring, as DecodeRing rebuilds it.
struct DecodedOcs {
  std::uint64_t id = 0;
  /// Ring index of the kAcquire that opened it.
  std::uint64_t begin = 0;
  /// Its outermost release is in the ring; false = cut off by a crash.
  bool committed = false;
  /// Dependency edges: PackThreadOcs of the releasers it acquired from.
  std::vector<std::uint64_t> deps;
  /// Its kStore entries plus the counter slots armed for it.
  std::vector<UndoRecord> undo;
};

/// Region-offset windows a ring's records must fall in; a record
/// outside is a defect. The defaults accept any offset (CheckHeap
/// passes the heap's arena).
struct RecordWindows {
  std::uint64_t store_begin = 0;
  std::uint64_t store_end = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t alloc_begin = 0;
  std::uint64_t alloc_end = std::numeric_limits<std::uint64_t>::max();
};

/// What DecodeRing found in one ring.
struct DecodedRing {
  /// Ring entries walked, and the kStore entries among them.
  std::uint64_t entries = 0;
  std::uint64_t stores = 0;
  /// Stamp of the last kStore entry (0 = none).
  std::uint64_t last_store_seq = 0;
  /// Counter-slot records attached to the OCSes below.
  std::uint64_t slot_records = 0;
  /// The ring's OCSes in program order. Only the last can be open.
  std::vector<DecodedOcs> ocses;
  /// Every defect found, each a "ring <t> ..." sentence.
  std::vector<std::string> defects;
  /// The first defect that makes the ring unfit for rollback (indices
  /// out of range, or an entry of an invalid or unknown kind); empty
  /// when recovery may trust the ring. The other defects (stamp order,
  /// unmatched release, record outside its window) do not stop
  /// recovery, which checks every record it applies.
  std::string unusable;
};

/// Decodes ring `thread` of `area` over the window [head, tail) — the
/// caller loads head and tail with the ordering its context needs — in
/// one pass. OCS boundaries come from acquire/release nesting: an
/// acquire at depth 0 opens an OCS, the release that returns the depth
/// to 0 commits it. Armed counter slots join the OCS they belong to
/// unless their OCS is stable (never needed again) or their seqlock
/// version is odd (torn: the guarded store never ran).
DecodedRing DecodeRing(const AtlasArea& area, std::uint32_t thread,
                       std::uint64_t head, std::uint64_t tail,
                       const RecordWindows& windows = {});

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_LOG_LAYOUT_H_
