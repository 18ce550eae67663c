// Copyright 2026 The TSP Authors.
// AtlasRuntime: crash resilience for conventional mutex-based
// multithreaded software over a persistent heap (paper §4.2).
//
// Model: shared persistent data may only be modified inside critical
// sections; each *outermost* critical section (OCS) finds and leaves the
// heap consistent, so an OCS is a failure-atomic bundle of changes. The
// runtime undo-logs the old value of every location an OCS stores to;
// recovery (recovery.h) rolls back OCSes interrupted by a crash, plus any
// completed OCSes that transitively observed their data. A stability
// pass (stability.h) trims logs of OCSes that can never be rolled back,
// as Atlas's log pruner does; the thread that publishes an unstable
// commit runs it, so the runtime starts no thread of its own unless a
// peer process may depend on it (StartPassThread).
//
// The TSP knob is the PersistencePolicy:
//   * PersistencePolicy::TspLogOnly() — log entries are NOT flushed;
//     correct whenever a TSP rescue guarantees recovery reads the most
//     recent state of persistent memory (always true for process
//     crashes on file-backed mappings).
//   * PersistencePolicy::SyncFlush() — undo entries are synchronously
//     flushed + fenced before the guarded store proceeds (batched: one
//     write-back + fence per published entry range, not per entry);
//     required when TSP is not available.
//
// Sequence stamps: undo records carry stamps from per-thread *leased
// blocks* of the shared persistent counter (AtlasRuntime::LeaseSeqBlock)
// rather than a per-record fetch_add, with a Lamport-clock resync at
// lock acquisition keeping stamps consistent with lock order. See
// AtlasThread::OnAcquire / IssueSeq and DESIGN.md §5 "Consistent cut".

#ifndef TSP_ATLAS_RUNTIME_H_
#define TSP_ATLAS_RUNTIME_H_

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/race_hooks.h"
#include "atlas/log_layout.h"
#include "atlas/stability.h"
#include "common/logging.h"
#include "common/status.h"
#include "core/persistence_policy.h"
#include "pheap/heap.h"
#include "pheap/sanitizer.h"

namespace tsp::atlas {

class AtlasRuntime;

/// Aggregated runtime counters (see AtlasRuntime::GetStats). Collected
/// per thread without synchronization and summed on demand, so reads
/// are approximate under concurrency.
struct AtlasRuntimeStats {
  std::uint64_t log_entries_appended = 0;
  std::uint64_t undo_records = 0;
  /// Stores elided because their target was allocated inside the
  /// current OCS (rollback unreaches fresh objects; GC reclaims them).
  std::uint64_t elided_fresh = 0;
  /// FliT counter-slot fast path: repeat stores absorbed by a slot
  /// already armed for the same word in the current OCS (no record),
  /// and slots (re-)armed in place of a ring append.
  std::uint64_t flit_repeat_hits = 0;
  std::uint64_t flit_rearms = 0;
  std::uint64_t ocses_committed = 0;
  std::uint64_t fast_path_commits = 0;  // ring rewound at commit
  std::uint64_t published_commits = 0;  // unstable at release
  std::uint64_t deps_recorded = 0;
  std::uint64_t pending_unstable = 0;  // published, not yet stable
  /// Sequence-lease counters: blocks of stamps taken from the shared
  /// global_sequence counter (one contended fetch_add each), and leases
  /// discarded at acquire time because the previous releaser's stamp
  /// frontier overtook them. seq_blocks_leased ≪ undo_records is the
  /// point of leasing.
  std::uint64_t seq_blocks_leased = 0;
  std::uint64_t seq_resyncs = 0;
  /// Multi-entry log publications (one tail advance + at most one fence
  /// for a whole guarded multi-word store).
  std::uint64_t batched_publishes = 0;
  /// Robust-lock counters, read from the *persistent* RobustTableHeader
  /// (not per-thread DRAM): they aggregate across every process that
  /// ever attached the heap, so a parent can report steals performed by
  /// workers that are already dead.
  std::uint64_t robust_steals = 0;
  std::uint64_t dead_owner_rollbacks = 0;
  std::uint64_t slots_harvested = 0;
};

// PLockWord and kLastReleaseStable moved to log_layout.h: robust locks
// embed the dependency channel in the persistent RobustLockWord.

/// Per-thread logging context. Obtain via AtlasRuntime::CurrentThread();
/// owned by the runtime. Written on every guarded store and OCS
/// boundary, so it is cache-line aligned: no other allocation can share
/// its lines. Unaligned, whether another thread's hot heap data landed
/// beside it depended on allocation history: dropping two 8-byte
/// counters from it once moved the put p50 of perfbench's
/// table1-logonly workload by 45% (4-vCPU KVM guest).
class alignas(64) AtlasThread {
 public:
  AtlasThread(AtlasRuntime* runtime, std::uint16_t thread_id);

  AtlasThread(const AtlasThread&) = delete;
  AtlasThread& operator=(const AtlasThread&) = delete;

  /// Logged store of a trivially copyable value of at most 8 bytes.
  /// Inside an OCS the old value is captured first, in a counter slot
  /// or a ring record (a repeat store to a word whose slot this OCS
  /// armed captures nothing); outside, it is a plain store (Atlas
  /// treats stores outside critical sections as immediately
  /// consistent).
  template <typename T>
  void Store(T* addr, T value) {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                  "Store handles word-sized values; use StoreBytes");
    if (depth_ > 0) LogOldValue(addr, sizeof(T));
    analysis::HookStore(addr, sizeof(T), thread_id_, current_ocs_);
    // The logged-store API is the blessed writer under TSPSan; raw
    // stores to the protected arena fault with a diagnostic instead.
    pheap::ScopedWriteWindow window(addr, sizeof(T));
    *addr = value;
  }

  /// Logged equivalent of memcpy into the persistent heap. Each
  /// aligned word of the span is captured exactly as Store does, but
  /// all records of the store are published as one batch: a single
  /// tail advance and, in sync-flush mode, one contiguous write-back
  /// plus one fence for the whole range (instead of a flush + fence per
  /// entry).
  void StoreBytes(void* dst, const void* src, std::size_t n);

  /// Mutex hooks (called by PMutex with its mutex held).
  void OnAcquire(PLockWord* lock, std::uint32_t lock_id);
  void OnRelease(PLockWord* lock, std::uint32_t lock_id);

  /// Optional split hooks that keep the mutex hold time short (the
  /// contended-lock lever: under convoying, every instruction inside
  /// the critical section multiplies). PMutex calls OnAcquirePrep
  /// *before* blocking on its mutex — it runs the thread-private
  /// begin-of-OCS work (epoch reset, OCS id, staging the kAcquire
  /// entry) so OnAcquire only has the work that genuinely needs the
  /// lock (Lamport resync + dependency edge). Symmetrically,
  /// OnReleaseBegin is the in-lock half of OnRelease and
  /// OnReleaseFinish runs the commit bookkeeping (stats, a stable OCS's
  /// deferred frees, an unstable one's publication and stability pass)
  /// after the mutex is dropped.
  /// OnAcquire/OnRelease remain self-sufficient for callers that do not
  /// split.
  void OnAcquirePrep(std::uint32_t lock_id);
  void OnReleaseBegin(PLockWord* lock, std::uint32_t lock_id);
  void OnReleaseFinish();

  /// Records an allocation made inside the current OCS. Beyond the
  /// kAlloc marker record (diagnostics; reclamation is the recovery
  /// GC's job either way), this registers the block's payload span as
  /// *OCS-fresh*: stores into it need no undo record, because rollback
  /// undoes the store that would have published the object and the
  /// recovery GC then reclaims the unreachable span.
  void NoteAlloc(const void* payload, std::uint32_t type_id);

  /// Frees `payload` once the current OCS can never be rolled back
  /// (i.e., when it stabilizes). Freeing inside an OCS directly would
  /// corrupt the heap if the OCS were later rolled back and the freed
  /// data resurrected. An OCS that takes the fast commit is stable at
  /// its release, so its frees run on this thread right after the mutex
  /// drop (OnReleaseFinish); an OCS still unstable at release publishes
  /// them, and the stability pass that proves it stable applies them.
  /// Outside an OCS, frees immediately.
  void DeferFree(void* payload);

  bool in_ocs() const { return depth_ > 0; }
  int nesting_depth() const { return depth_; }
  std::uint16_t thread_id() const { return thread_id_; }
  std::uint64_t current_ocs() const { return current_ocs_; }
  const AtlasRuntimeStats& local_stats() const { return stats_; }

  /// Highest sequence stamp this thread has issued or observed through
  /// a lock acquisition (its Lamport frontier). Exposed for tests.
  std::uint64_t seq_frontier() const { return seq_frontier_; }

 private:
  void LogOldValue(const void* addr, std::size_t size);
  /// Stages undo coverage for the aligned word span containing
  /// [addr, addr + size): fresh-span elision, then per-word staging.
  /// Returns false when the span was fresh-elided (nothing needs to be
  /// durable before the guarded store, so staged bracket entries may
  /// stay unpublished).
  bool StageOldValue(const void* addr, std::size_t size);
  /// Stages coverage for one aligned 8-byte word: FliT counter-slot
  /// probe first, else one ring record.
  void StageWord(std::uint64_t word_offset);
  /// Claims or re-arms a counter slot for `word_offset` (occupant known
  /// stable): captures the old word and stamps the slot, with no ring
  /// traffic.
  void ArmCounterSlot(CounterSlot& cs, std::uint64_t word_offset);
  /// True if [word_offset, word_offset + len) lies inside a block
  /// allocated in the current OCS.
  bool IsFreshSpan(std::uint64_t word_offset, std::uint64_t len) const;
  /// Writes one entry at tail + staged count; visible only after
  /// PublishStaged. Waits on HandleRingFull when the ring is full.
  LogEntry* StageEntry(EntryKind kind, std::uint8_t size, std::uint32_t aux,
                       std::uint64_t addr_offset, std::uint64_t payload);
  /// Publishes all staged entries with one tail advance; in sync-flush
  /// mode writes back the staged range and, when `ordered`, fences once.
  void PublishStaged(bool ordered);
  /// Stage + publish a single entry.
  void AppendEntry(EntryKind kind, std::uint8_t size, std::uint32_t aux,
                   std::uint64_t addr_offset, std::uint64_t payload);
  /// Stamps the next undo record from the thread's leased block, taking
  /// a fresh block from the shared counter when the lease is spent.
  std::uint64_t IssueSeq();
  void HandleRingFull();
  /// Thread-private begin-of-OCS work shared by OnAcquirePrep and the
  /// unsplit OnAcquire: OCS id, epoch reset, span/dep clears, and
  /// staging (not publishing) the outermost kAcquire entry.
  void BeginOcs(std::uint32_t lock_id);

  AtlasRuntime* runtime_;
  ThreadLogHeader* slot_;
  /// This thread's ring and its index mask (AtlasArea::ring_mask).
  LogEntry* ring_;
  std::uint64_t ring_mask_;
  /// Flight-recorder handle (null when tracing is off). Bound once at
  /// registration; the OCS begin event, the commit watermark and the
  /// cold lease/resync/batch branches are the only traced sites on the
  /// logging path.
  obs::TraceWriter* trace_ = nullptr;
  std::uint16_t thread_id_;
  int depth_ = 0;
  /// Entries written past tail_ but not yet published.
  std::uint32_t staged_ = 0;
  /// Leased sequence-stamp block: [seq_next_, seq_limit_). Empty when
  /// equal; IssueSeq then leases a fresh block.
  std::uint64_t seq_next_ = 0;
  std::uint64_t seq_limit_ = 0;
  /// Invariant: seq_next_ > seq_frontier_ whenever the lease is
  /// non-empty, so every stamp issued exceeds everything in this
  /// thread's causal past (OnAcquire restores it by discarding the
  /// lease when an observed release frontier overtakes it).
  std::uint64_t seq_frontier_ = 0;
  std::uint64_t current_ocs_ = 0;
  /// Ring index of the current OCS's opening kAcquire: where a fast-path
  /// commit rewinds the ring to, and, when the ring head catches up to
  /// it while full, proof that the OCS alone overflows the ring.
  std::uint64_t current_ocs_begin_tail_ = 0;
  /// Persistent FliT counter-slot array of this thread (null when the
  /// area was formatted without slots) and its power-of-two index mask.
  CounterSlot* counter_slots_ = nullptr;
  std::uint32_t counter_slot_mask_ = 0;
  /// Payload spans [begin, end) allocated inside the current OCS;
  /// cleared at every OCS boundary. Almost always empty or tiny (one
  /// entry per allocation in the OCS), so containment is a linear scan.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fresh_spans_;
  std::vector<std::uint64_t> current_deps_;
  std::vector<void*> current_deferred_frees_;
  /// The outermost kAcquire entry, staged by BeginOcs but published
  /// lazily — with the first undo capture (every capture publishes
  /// before its guarded store) or by the first nested append. An OCS
  /// that captures nothing never publishes it: a crash then has nothing
  /// to roll back, and a fast-path commit just discards the stage. The
  /// pointer stays valid until published (only this thread stages).
  LogEntry* staged_acquire_ = nullptr;
  /// True between OnAcquirePrep and the matching OnAcquire: BeginOcs
  /// already ran for the OCS about to open.
  bool acquire_prepped_ = false;
  /// Commit state carried from OnReleaseBegin to OnReleaseFinish.
  bool fast_commit_ = false;
  bool finish_pending_ = false;
  /// True once the current OCS emitted its kOcsBegin trace event —
  /// deferred to the first publication so the recorder's open-span
  /// story matches what recovery can see in the ring. Capture-free
  /// OCSes emit no begin and move no commit watermark.
  bool ocs_trace_open_ = false;
  /// Lock id of the outermost acquire, for the deferred begin event.
  std::uint32_t ocs_lock_id_ = 0;
  AtlasRuntimeStats stats_;
};

/// One runtime per persistent heap. Construct after recovery (if the
/// heap needs it — see atlas/recovery.h), call Initialize once, then
/// hand CurrentThread() to worker threads (or just use PMutex and
/// Store, which do so internally).
class AtlasRuntime {
 public:
  struct Options {
    /// Stamps leased per block from the shared persistent
    /// global_sequence counter: one contended fetch_add per
    /// seq_block_size undo records instead of one per record. 1
    /// degenerates to the dense per-entry scheme (useful as an
    /// ablation); 0 is clamped to 1.
    std::uint32_t seq_block_size = 64;
    /// FliT-style logged counter slots: when false, threads skip the
    /// per-object counter-slot probe and every captured store appends
    /// one ring record (the pre-slot behavior). Ablation knob for measuring
    /// the slot win, and for tests that assert on raw ring contents.
    bool use_counter_slots = true;
  };

  AtlasRuntime(pheap::PersistentHeap* heap, PersistencePolicy policy);
  AtlasRuntime(pheap::PersistentHeap* heap, PersistencePolicy policy,
               Options options);
  ~AtlasRuntime();

  AtlasRuntime(const AtlasRuntime&) = delete;
  AtlasRuntime& operator=(const AtlasRuntime&) = delete;

  /// Formats the heap's runtime area (fresh heaps) or attaches to and
  /// resets it (clean reopen). Fails with kFailedPrecondition if the
  /// heap still needs recovery — run RecoverAtlas first.
  Status Initialize();

  /// Joins a *live* domain: attaches to the already-formatted area of a
  /// heap other processes may be serving right now, without resetting
  /// any slot — the reset in Initialize would erase peers' live rings.
  /// Runs a dead-slot harvest (HarvestDeadSlots) so a crashed previous
  /// occupant never wedges the joiner, then serves normally. Requires an
  /// area of the current format version; any other must be opened
  /// exclusively (Initialize, which reformats it) first.
  Status Attach();

  /// True when this runtime joined via Attach (cooperating processes
  /// may share the heap; nothing that assumes exclusivity may run).
  bool attach_mode() const { return attach_mode_; }

  /// Returns the calling thread's logging context, registering the
  /// thread on first use. Fatal if all thread slots are taken (after a
  /// dead-slot harvest fails to free one in attach mode).
  AtlasThread* CurrentThread();

  /// Releases the calling thread's slot (requires no open OCS). Safe to
  /// call from threads that never registered. The slot's remaining
  /// committed OCSes are stabilized (bounded wait) first, so the next
  /// claimant — possibly in another process — never inherits an orphan
  /// backlog that its own passes cannot drain.
  void UnregisterCurrentThread();

  /// Scans every slot header for claimants whose (pid, birth) is no
  /// longer alive and harvests each: rolls back the dead owner's open
  /// OCS from its undo log, rewinds its ring, clears robust lock words
  /// it owned, and frees the slot. Returns slots harvested. Safe to run
  /// while live peers serve (the kSlotHarvesting CAS makes each harvest
  /// exactly-once).
  std::size_t HarvestDeadSlots();

  /// Contention-path harvest: `token` is the owner value read from a
  /// RobustLockWord (slot index + 1). Resolves the slot's claimant
  /// liveness; when dead, harvests that slot (which clears every robust
  /// lock word it owns, including the contended one). Returns true when
  /// the owner was dead — the caller then re-reads the lock word and
  /// counts a steal when it wins it.
  bool HarvestDeadOwner(std::uint64_t token);

  /// The robust lock table (null / 0 when the area was formatted
  /// without one; robust locking is then off for this heap).
  RobustTableHeader* robust_table() const {
    return area_.robust_lock_count() > 0 ? area_.robust_header() : nullptr;
  }
  std::uint32_t robust_lock_count() const {
    return initialized_ ? area_.robust_lock_count() : 0;
  }
  RobustLockWord* robust_lock(std::uint32_t index) const {
    return area_.robust_lock(index);
  }

  /// Runs one stability pass now. Every release that publishes an
  /// unstable commit runs one too, as do a thread whose ring is full,
  /// UnregisterCurrentThread and a clean shutdown. Returns OCSes
  /// stabilized.
  std::size_t StabilizeNow() { return stability_->RunPass(); }

  /// Starts, once, a thread that runs a stability pass every 200 us
  /// until the runtime is destroyed. PMutex::UnlockWith calls it when a
  /// robust lock is released by an OCS that is not stable yet: a thread
  /// of another process that takes the lock next depends on that OCS,
  /// and only this process's passes can prove it stable, at a moment no
  /// event in this process marks (DESIGN.md §12).
  void StartPassThread();

  /// Sums all threads' counters (approximate under concurrency).
  AtlasRuntimeStats GetStats();

  pheap::PersistentHeap* heap() const { return heap_; }
  const PersistencePolicy& policy() const { return policy_; }
  const AtlasArea& area() const { return area_; }
  StabilityManager* stability() const { return stability_.get(); }
  bool initialized() const { return initialized_; }

  /// Leases a block of Options::seq_block_size sequence stamps from the
  /// persistent global counter, returning the block's first stamp. The
  /// only cross-thread contention point of the logging fast path; called
  /// once per block, not per undo record.
  std::uint64_t LeaseSeqBlock() {
    return heap_->region()->header()->global_sequence.fetch_add(
        options_.seq_block_size, std::memory_order_relaxed);
  }

  std::uint32_t seq_block_size() const { return options_.seq_block_size; }
  bool use_counter_slots() const { return options_.use_counter_slots; }

  /// Hands out process-unique lock ids for diagnostics.
  std::uint32_t AssignLockId() {
    return next_lock_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Stable-OCS frontier of a peer thread (deps on stable OCSes need not
  /// be recorded).
  std::uint64_t StableOcsOf(std::uint16_t thread_id) const {
    return area_.slot(thread_id)->stable_ocs.load(std::memory_order_acquire);
  }

  /// Unique instance id (guards thread-local caches against pointer
  /// reuse after a runtime is destroyed).
  std::uint64_t instance_id() const { return instance_id_; }

 private:
  /// Shared tail of Initialize/Attach: stability manager and metrics
  /// source.
  void FinishSetup();
  /// Harvests slot `t` if its claimant is dead. The kSlotHarvesting CAS
  /// plus a post-CAS identity recheck make this safe against the slot
  /// being freed and re-claimed by a live thread concurrently.
  bool MaybeHarvestSlot(std::uint32_t t);

  pheap::PersistentHeap* heap_;
  PersistencePolicy policy_;
  Options options_;
  AtlasArea area_;
  bool initialized_ = false;
  bool attach_mode_ = false;
  std::uint64_t instance_id_;
  std::atomic<std::uint32_t> next_lock_id_{1};

  std::unique_ptr<StabilityManager> stability_;
  std::once_flag pass_thread_once_;
  std::atomic<bool> pass_thread_stop_{false};
  std::thread pass_thread_;
  /// Metrics pull-source registration with obs::DefaultRegistry (0 when
  /// not registered); folds GetStats into snapshots on demand.
  std::uint64_t metrics_source_id_ = 0;

  std::mutex registry_mutex_;
  std::vector<std::unique_ptr<AtlasThread>> threads_;
};

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_RUNTIME_H_
