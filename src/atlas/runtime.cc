#include "atlas/runtime.h"

#include <chrono>
#include <thread>

#include "atlas/recovery.h"
#include "common/process_id.h"
#include "obs/metrics.h"
#include "obs/trace_layout.h"

namespace tsp::atlas {
namespace {

std::atomic<std::uint64_t> g_next_instance_id{1};

// Thread-local registry: (runtime instance id → AtlasThread*). A thread
// typically touches one runtime, so this is a tiny vector.
struct TlsBinding {
  std::uint64_t instance_id;
  AtlasThread* thread;
};
thread_local std::vector<TlsBinding> tls_bindings;

}  // namespace

AtlasRuntime::AtlasRuntime(pheap::PersistentHeap* heap,
                           PersistencePolicy policy)
    : AtlasRuntime(heap, policy, Options()) {}

AtlasRuntime::AtlasRuntime(pheap::PersistentHeap* heap,
                           PersistencePolicy policy, Options options)
    : heap_(heap),
      policy_(policy),
      options_(options),
      area_(heap->runtime_area(), AtlasAreaSize(heap->runtime_area_size())),
      instance_id_(g_next_instance_id.fetch_add(1)) {}

AtlasRuntime::~AtlasRuntime() {
#ifndef TSP_OBS_DISABLED
  // First: a metrics snapshot taken during teardown must not call back
  // into a half-destroyed runtime.
  if (metrics_source_id_ != 0) {
    obs::DefaultRegistry().UnregisterSource(metrics_source_id_);
  }
#endif
  // No last pass: destroying a runtime leaves its logs as a crash
  // would. A clean shutdown runs that pass first
  // (PersistenceDomain::CloseClean).
  pass_thread_stop_.store(true, std::memory_order_release);
  if (pass_thread_.joinable()) pass_thread_.join();
  // Stale TLS bindings stay behind; they are keyed by instance id and
  // will never match a future runtime.
}

Status AtlasRuntime::Initialize() {
  if (options_.seq_block_size == 0) options_.seq_block_size = 1;
  if (heap_->needs_recovery()) {
    return Status::FailedPrecondition(
        "heap needs recovery; run RecoverAtlas before Initialize");
  }
  const std::size_t atlas_size = AtlasAreaSize(heap_->runtime_area_size());
  if (!AtlasArea::Validate(heap_->runtime_area(), atlas_size)) {
    // Unformatted, malformed, or another format version: reformat to the
    // current version — safe here because Initialize only runs on heaps
    // with nothing to roll back.
    if (AtlasArea::Format(heap_->runtime_area(), atlas_size,
                          kDefaultMaxThreads) == 0) {
      return Status::InvalidArgument(
          "runtime area too small for the Atlas log");
    }
  }
  // Clean session start: ring contents are not needed (a clean shutdown
  // means every OCS committed and nothing can roll back), so reset every
  // slot's ring while keeping the monotonic OCS counters.
  for (std::uint32_t t = 0; t < area_.max_threads(); ++t) {
    ThreadLogHeader* slot = area_.slot(t);
    slot->in_use.store(0, std::memory_order_relaxed);
    slot->thread_id = t;
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
  // Counter slots hold old values of a dead session's OCSes (all
  // stable after a clean shutdown); empty them so stale occupancy never
  // blocks the fast path.
  if (area_.counter_slots_per_thread() > 0) {
    for (std::uint32_t t = 0; t < area_.max_threads(); ++t) {
      std::memset(static_cast<void*>(area_.counter_slots(t)), 0,
                  sizeof(CounterSlot) * area_.counter_slots_per_thread());
    }
  }
  // An exclusive (re)start means no claimant is alive: every robust
  // lock is free. The table header's counters are cumulative and stay.
  for (std::uint32_t i = 0; i < area_.robust_lock_count(); ++i) {
    RobustLockWord* word = area_.robust_lock(i);
    word->owner.store(0, std::memory_order_relaxed);
    word->dependency.last_release.store(0, std::memory_order_relaxed);
    word->dependency.release_seq.store(0, std::memory_order_relaxed);
  }
  FinishSetup();
  return Status::OK();
}

Status AtlasRuntime::Attach() {
  if (options_.seq_block_size == 0) options_.seq_block_size = 1;
  // Unlike Initialize, a joiner may never format or reset anything: the
  // area's rings can be live in other processes right now.
  const Status area_status = AtlasArea::Check(
      heap_->runtime_area(), AtlasAreaSize(heap_->runtime_area_size()));
  if (!area_status.ok()) {
    return Status::FailedPrecondition(
        "attach requires a current-format Atlas area (" +
        area_status.message() +
        "); open the domain exclusively (Initialize) first");
  }
  attach_mode_ = true;
  FinishSetup();
  // Join-time recovery: harvest every slot whose claimant died, so a
  // crashed predecessor neither wedges its locks until first contention
  // nor starves the slot table.
  HarvestDeadSlots();
  return Status::OK();
}

void AtlasRuntime::FinishSetup() {
  stability_ = std::make_unique<StabilityManager>(
      area_, area_.max_threads(), [this](void* p) { heap_->Free(p); });
  initialized_ = true;
#ifndef TSP_OBS_DISABLED
  metrics_source_id_ = obs::DefaultRegistry().RegisterSource(
      [this](obs::SnapshotBuilder* builder) {
        const AtlasRuntimeStats stats = GetStats();
        builder->AddCounter("atlas.log_entries_appended",
                            stats.log_entries_appended);
        builder->AddCounter("atlas.undo_records", stats.undo_records);
        builder->AddCounter("atlas.elided_fresh", stats.elided_fresh);
        builder->AddCounter("atlas.flit_repeat_hits",
                            stats.flit_repeat_hits);
        builder->AddCounter("atlas.flit_rearms", stats.flit_rearms);
        builder->AddCounter("atlas.ocses_committed", stats.ocses_committed);
        builder->AddCounter("atlas.fast_path_commits",
                            stats.fast_path_commits);
        builder->AddCounter("atlas.published_commits",
                            stats.published_commits);
        builder->AddCounter("atlas.deps_recorded", stats.deps_recorded);
        builder->AddGauge("atlas.pending_unstable",
                          static_cast<std::int64_t>(stats.pending_unstable));
        builder->AddCounter("atlas.seq_blocks_leased",
                            stats.seq_blocks_leased);
        builder->AddCounter("atlas.seq_resyncs", stats.seq_resyncs);
        builder->AddCounter("atlas.batched_publishes",
                            stats.batched_publishes);
        builder->AddCounter("atlas.robust_steals", stats.robust_steals);
        builder->AddCounter("atlas.dead_owner_rollbacks",
                            stats.dead_owner_rollbacks);
        builder->AddCounter("atlas.slots_harvested", stats.slots_harvested);
      });
#endif
}

void AtlasRuntime::StartPassThread() {
  std::call_once(pass_thread_once_, [this] {
    pass_thread_ = std::thread([this] {
      while (!pass_thread_stop_.load(std::memory_order_acquire)) {
        stability_->RunPass();
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  });
}

AtlasRuntimeStats AtlasRuntime::GetStats() {
  AtlasRuntimeStats total;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& thread : threads_) {
    const AtlasRuntimeStats& s = thread->local_stats();
    total.log_entries_appended += s.log_entries_appended;
    total.undo_records += s.undo_records;
    total.elided_fresh += s.elided_fresh;
    total.flit_repeat_hits += s.flit_repeat_hits;
    total.flit_rearms += s.flit_rearms;
    total.ocses_committed += s.ocses_committed;
    total.fast_path_commits += s.fast_path_commits;
    total.published_commits += s.published_commits;
    total.deps_recorded += s.deps_recorded;
    total.seq_blocks_leased += s.seq_blocks_leased;
    total.seq_resyncs += s.seq_resyncs;
    total.batched_publishes += s.batched_publishes;
  }
  total.pending_unstable = stability_ ? stability_->PendingCount() : 0;
  // Robust counters come from the persistent table, not per-thread
  // DRAM, so a parent reporting after its workers died still sees
  // every steal and rollback they performed.
  if (initialized_ && area_.robust_lock_count() > 0) {
    const RobustTableHeader* table = area_.robust_header();
    total.robust_steals =
        table->robust_steals.load(std::memory_order_relaxed);
    total.dead_owner_rollbacks =
        table->dead_owner_rollbacks.load(std::memory_order_relaxed);
    total.slots_harvested =
        table->slots_harvested.load(std::memory_order_relaxed);
  }
  return total;
}

AtlasThread* AtlasRuntime::CurrentThread() {
  for (const TlsBinding& binding : tls_bindings) {
    if (binding.instance_id == instance_id_) return binding.thread;
  }
  TSP_CHECK(initialized_) << "AtlasRuntime::Initialize was not called";

  std::lock_guard<std::mutex> lock(registry_mutex_);
  // Two passes at most: a full slot table in attach mode may be full of
  // corpses — harvest once and rescan before giving up.
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::uint32_t t = 0; t < area_.max_threads(); ++t) {
      ThreadLogHeader* slot = area_.slot(t);
      std::uint32_t expected = kSlotFree;
      if (!slot->in_use.compare_exchange_strong(expected, kSlotClaimed,
                                                std::memory_order_acq_rel)) {
        continue;
      }
      // Stamp the claimant identity, pid last with release order: a
      // concurrent harvester treats (claimed, pid == 0) as "claim in
      // progress, assume alive", so it can never act on a stale
      // identity paired with our fresh claim.
      const ProcessIdentity self = CurrentProcess();
      slot->owner_tid = CurrentTid();
      slot->owner_birth.store(self.birth, std::memory_order_relaxed);
      slot->owner_pid.store(self.pid, std::memory_order_release);
      // In attach mode a cleanly freed slot can carry an orphan backlog
      // (committed OCSes a dead owner's passes never stabilized). They
      // can never be rolled back (committed, and every dependency
      // target of a committed OCS is itself committed), so adopt them
      // as stable — our own passes never saw them and could not drain
      // them otherwise, which would wedge peers' dependency recording
      // and, eventually, this ring.
      const std::uint64_t committed =
          slot->committed_ocs.load(std::memory_order_relaxed);
      if (slot->stable_ocs.load(std::memory_order_relaxed) < committed) {
        slot->stable_ocs.store(committed, std::memory_order_release);
        slot->head.store(slot->tail.load(std::memory_order_relaxed),
                         std::memory_order_release);
      }
      auto thread = std::make_unique<AtlasThread>(
          this, static_cast<std::uint16_t>(t));
      AtlasThread* raw = thread.get();
      threads_.push_back(std::move(thread));
      tls_bindings.push_back({instance_id_, raw});
      return raw;
    }
    if (attempt == 0 && HarvestDeadSlots() == 0) break;
  }
  TSP_LOG(FATAL) << "all " << area_.max_threads()
                 << " Atlas thread slots are in use";
  return nullptr;
}

void AtlasRuntime::UnregisterCurrentThread() {
  // An orderly Atlas thread exit also retires the thread's allocator
  // magazines: a worker that unregisters here will typically never
  // allocate from this heap again, and parked blocks would otherwise
  // stay invisible to other threads until the allocator itself dies.
  heap_->allocator()->FlushCurrentThreadCache();
  for (auto it = tls_bindings.begin(); it != tls_bindings.end(); ++it) {
    if (it->instance_id != instance_id_) continue;
    AtlasThread* thread = it->thread;
    TSP_CHECK_EQ(thread->nesting_depth(), 0)
        << "unregistering a thread inside a critical section";
    ThreadLogHeader* slot = area_.slot(thread->thread_id());
    // Drain this slot's unstable backlog before handing it back. The
    // next claimant may live in another process whose passes never saw
    // these OCSes; worse, leaving them pending lets *our* passes store
    // an older stable_ocs over the next claimant's fresher one (the
    // stale-pass regression race). Bounded: stability converges once
    // peers commit, and a peer stuck in a critical section for two
    // seconds is already pathological — we free the slot regardless
    // and a future claimant adopts the remainder as stable.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (slot->stable_ocs.load(std::memory_order_acquire) <
           slot->committed_ocs.load(std::memory_order_acquire)) {
      StabilizeNow();
      if (std::chrono::steady_clock::now() > deadline) {
        TSP_LOG(WARNING) << "thread slot " << thread->thread_id()
                         << " freed with an unstable backlog";
        break;
      }
      std::this_thread::yield();
    }
    // Identity clears before the free: scanners treat (claimed,
    // pid == 0) as alive, and a free slot's stale identity is ignored.
    slot->owner_pid.store(0, std::memory_order_release);
    slot->owner_tid = 0;
    slot->owner_birth.store(0, std::memory_order_relaxed);
    slot->in_use.store(kSlotFree, std::memory_order_release);
    tls_bindings.erase(it);
    // Release the thread's trace ring last: the cache retirement above
    // already stopped the allocator writing to it, and the AtlasThread
    // emits nothing once unregistered.
    if (heap_->recorder() != nullptr) {
      heap_->recorder()->ReleaseCurrentThread();
    }
    return;
  }
}

std::size_t AtlasRuntime::HarvestDeadSlots() {
  std::size_t harvested = 0;
  for (std::uint32_t t = 0; t < area_.max_threads(); ++t) {
    if (MaybeHarvestSlot(t)) ++harvested;
  }
  return harvested;
}

bool AtlasRuntime::HarvestDeadOwner(std::uint64_t token) {
  if (token == 0 || token > area_.max_threads()) return false;
  return MaybeHarvestSlot(static_cast<std::uint32_t>(token - 1));
}

bool AtlasRuntime::MaybeHarvestSlot(std::uint32_t t) {
  ThreadLogHeader* slot = area_.slot(t);
  std::uint32_t state = slot->in_use.load(std::memory_order_acquire);
  if (state == kSlotFree) return false;
  const std::uint32_t pid = slot->owner_pid.load(std::memory_order_acquire);
  // pid == 0 under a claim means the claimant is mid-stamp (or the area
  // predates identities): assume alive — a false "alive" only delays a
  // steal, a false "dead" would roll back a live thread's OCS.
  if (pid == 0) return false;
  if (CheckLiveness(pid, slot->owner_birth.load(std::memory_order_relaxed)) ==
      Liveness::kAlive) {
    return false;
  }
  if (state == kSlotHarvesting) {
    // The harvester itself died mid-harvest. Demote to claimed so the
    // CAS below elects exactly one successor (possibly not us).
    slot->in_use.compare_exchange_strong(state, kSlotClaimed,
                                         std::memory_order_acq_rel);
  }
  std::uint32_t expected = kSlotClaimed;
  if (!slot->in_use.compare_exchange_strong(expected, kSlotHarvesting,
                                            std::memory_order_acq_rel)) {
    return false;  // another survivor won the handoff
  }
  // Re-resolve liveness now that we own the handoff: between the reads
  // above and the CAS, the slot may have been freed and re-claimed by a
  // live thread (whose claim CAS reused the kSlotClaimed state we
  // expected). Its identity stamp — or the pid == 0 mid-stamp window —
  // exposes that, and we put the state back untouched.
  const std::uint32_t pid2 = slot->owner_pid.load(std::memory_order_acquire);
  if (pid2 == 0 ||
      CheckLiveness(pid2, slot->owner_birth.load(
                              std::memory_order_relaxed)) ==
          Liveness::kAlive) {
    slot->in_use.store(kSlotClaimed, std::memory_order_release);
    return false;
  }
  // Stamp ourselves as the harvester so our own death mid-harvest is
  // detectable (the demote-and-reelect path above).
  const ProcessIdentity self = CurrentProcess();
  slot->owner_tid = CurrentTid();
  slot->owner_birth.store(self.birth, std::memory_order_relaxed);
  slot->owner_pid.store(self.pid, std::memory_order_release);

  const SlotHarvestStats harvest =
      HarvestDeadSlot(area_, heap_->region(), t);
  if (!harvest.status.ok()) {
    // Quarantine: leave the slot in harvesting state stamped with our
    // (live) identity; peers will not touch it, and the next full
    // exclusive recovery resets it.
    TSP_LOG(ERROR) << "harvest of dead slot " << t
                   << " failed: " << harvest.status.ToString();
    return false;
  }
  if (RobustTableHeader* table = robust_table()) {
    table->slots_harvested.fetch_add(1, std::memory_order_relaxed);
    if (harvest.rolled_back) {
      table->dead_owner_rollbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  TSP_COUNTER_INC("atlas.slots_harvested_local");
  // Identity clears strictly before the free (see Unregister).
  slot->owner_pid.store(0, std::memory_order_release);
  slot->owner_tid = 0;
  slot->owner_birth.store(0, std::memory_order_relaxed);
  slot->in_use.store(kSlotFree, std::memory_order_release);
  return true;
}

AtlasThread::AtlasThread(AtlasRuntime* runtime, std::uint16_t thread_id)
    : runtime_(runtime),
      slot_(runtime->area().slot(thread_id)),
      ring_(runtime->area().ring(thread_id)),
      ring_mask_(runtime->area().ring_mask()),
      thread_id_(thread_id) {
  obs::Recorder* recorder = runtime->heap()->recorder();
  if (recorder != nullptr) trace_ = recorder->writer();
  // The FliT fast path needs a power-of-two slot count for the
  // direct-mapped index; any other value (including 0 on areas too
  // small for the carve-out) just disables it.
  const std::uint32_t slots = runtime->area().counter_slots_per_thread();
  if (runtime->use_counter_slots() && slots > 0 &&
      (slots & (slots - 1)) == 0) {
    counter_slots_ = runtime->area().counter_slots(thread_id);
    counter_slot_mask_ = slots - 1;
  }
}

bool AtlasThread::IsFreshSpan(std::uint64_t word_offset,
                              std::uint64_t len) const {
  for (const auto& span : fresh_spans_) {
    if (word_offset >= span.first && word_offset + len <= span.second) {
      return true;
    }
  }
  return false;
}

void AtlasThread::ArmCounterSlot(CounterSlot& cs, std::uint64_t word_offset) {
  std::uint64_t old_value;
  std::memcpy(&old_value,
              runtime_->heap()->region()->FromOffset(word_offset), 8);
  // Seqlock update: recovery skips odd-version slots. Only persistence
  // order matters (the slot is thread-private; recovery reads it after
  // the process is dead), and a cache line persists writes in program
  // order, so a recovered slot is either the old state, odd + partial,
  // or the complete new state — never new fields under an old even
  // version. The fences pin the compiler to that program order.
  const std::uint64_t v = cs.version.load(std::memory_order_relaxed);
  cs.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  cs.addr_offset = word_offset;
  cs.old_value = old_value;
  cs.ocs_id = current_ocs_;
  cs.seq = IssueSeq();
  cs.version.store(v + 2, std::memory_order_release);
  ++stats_.flit_rearms;
  // The slot *is* the undo record, so in sync-flush mode it must be
  // durable before the guarded store executes, exactly like a ring
  // record (no-op under TSP log-only).
  runtime_->policy().PersistLogBytes(&cs, sizeof(cs), /*ordered=*/true);
}

void AtlasThread::StageWord(std::uint64_t word_offset) {
  // FliT-style logged counter: one predictable-branch probe. A slot
  // armed for this word in the current OCS means the old value is
  // already captured (the common repeat-store); a slot whose occupant
  // OCS is stable can never be rolled back, so it is free to be
  // re-armed for this word — one L1-resident line write instead of a
  // 32-byte ring append. Unstable occupants fall through to the ring
  // path (their old value may still be needed), which records every
  // capture: a repeat of a word already in the ring appends again, and
  // recovery's reverse-stamp replay lets the oldest record win.
  if (counter_slot_mask_ != 0) {
    CounterSlot& cs =
        counter_slots_[((word_offset >> 3) * 0x9e3779b97f4a7c15ULL >> 32) &
                       counter_slot_mask_];
    if (cs.addr_offset == word_offset && cs.ocs_id == current_ocs_) {
      ++stats_.flit_repeat_hits;
      return;
    }
    if (cs.ocs_id <=
        slot_->stable_ocs.load(std::memory_order_relaxed)) {
      ArmCounterSlot(cs, word_offset);
      return;
    }
  }
  std::uint64_t old_value;
  std::memcpy(&old_value,
              runtime_->heap()->region()->FromOffset(word_offset), 8);
  ++stats_.undo_records;
  StageEntry(EntryKind::kStore, 8, 0, word_offset, old_value);
}

bool AtlasThread::StageOldValue(const void* addr, std::size_t size) {
  // Undo coverage is tracked at aligned-word granularity (a counter
  // slot asserts "this whole word is captured"), so every store
  // decomposes into full 8-byte words — a sub-word capture under
  // word-granular tracking would elide bytes that were never saved.
  // Restoring the extra bytes is safe: they hold the word's value at
  // capture time, and reverse-stamp replay makes the oldest capture win.
  const std::uint64_t offset = runtime_->heap()->region()->ToOffset(addr);
  const std::uint64_t first = offset & ~7ULL;
  const std::uint64_t end = (offset + size + 7) & ~7ULL;
  if (!fresh_spans_.empty() && IsFreshSpan(first, end - first)) {
    ++stats_.elided_fresh;
    return false;  // no coverage needed; the bracket may stay staged
  }
  for (std::uint64_t word = first; word < end; word += 8) StageWord(word);
  return true;
}

void AtlasThread::LogOldValue(const void* addr, std::size_t size) {
  if (StageOldValue(addr, size)) PublishStaged(/*ordered=*/true);
}

void AtlasThread::StoreBytes(void* dst, const void* src, std::size_t n) {
  // Stage undo coverage for the whole word-aligned span, one capture
  // per word, then publish as one batch: a single tail advance
  // and, in sync-flush mode, one contiguous write-back plus one fence —
  // the whole batch is durable before any of the guarded stores
  // execute (§4.2).
  if (depth_ > 0 && n > 0) LogOldValue(dst, n);
  analysis::HookStore(dst, n, thread_id_, current_ocs_);
  pheap::ScopedWriteWindow window(dst, n);
  std::memcpy(dst, src, n);
}

std::uint64_t AtlasThread::IssueSeq() {
  if (TSP_PREDICT_FALSE(seq_next_ == seq_limit_)) {
    seq_next_ = runtime_->LeaseSeqBlock();
    seq_limit_ = seq_next_ + runtime_->seq_block_size();
    ++stats_.seq_blocks_leased;
    TSP_TRACE_EVENT(trace_, obs::EventCode::kSeqBlockLease, seq_next_,
                    runtime_->seq_block_size());
  }
  // seq_next_ > seq_frontier_ here (a fresh lease starts past every
  // stamp ever issued from the shared counter; OnAcquire discards any
  // lease an observed frontier overtakes), so stamps strictly increase
  // along every happens-before path.
  const std::uint64_t seq = seq_next_++;
  seq_frontier_ = seq;
  return seq;
}

void AtlasThread::BeginOcs(std::uint32_t lock_id) {
  // next_ocs is owned by this thread (recovery resets it only with the
  // process dead), so a plain load + store replaces the locked RMW a
  // fetch_add would cost on the hot path.
  const std::uint64_t next = slot_->next_ocs.load(std::memory_order_relaxed);
  slot_->next_ocs.store(next + 1, std::memory_order_relaxed);
  current_ocs_ = next;
  fresh_spans_.clear();
  current_deps_.clear();
  current_ocs_begin_tail_ = slot_->tail.load(std::memory_order_relaxed);
  // Stage — do not publish — the opening kAcquire. Every undo capture
  // publishes it before its guarded store executes (ring presence is
  // what lets recovery attribute counter-slot captures to this OCS), so
  // a crash can never see a capture without the bracket. An OCS that
  // captures nothing never pays the publish at all: with no guarded
  // old-value to restore and no committed successor able to observe it
  // (commit discards or trims the bracket before the mutex is
  // released), recovery has nothing to learn from it. The dependency
  // edge is patched in by OnAcquire once the lock is actually held.
  staged_acquire_ =
      StageEntry(EntryKind::kAcquire, 0, lock_id, current_ocs_, 0);
  // The kOcsBegin trace event is deferred to the first publication
  // (PublishStaged) so the recorder's open-span story matches the
  // ring's: an OCS that never publishes is invisible to recovery, and
  // must be invisible to the post-crash trace cross-reference too.
  ocs_trace_open_ = false;
  ocs_lock_id_ = lock_id;
}

void AtlasThread::OnAcquirePrep(std::uint32_t lock_id) {
  if (depth_ != 0 || acquire_prepped_) return;
  BeginOcs(lock_id);
  acquire_prepped_ = true;
}

void AtlasThread::OnAcquire(PLockWord* lock, std::uint32_t lock_id) {
  pheap::TspSanitizer::NoteOcsDepth(depth_ + 1);
  const bool outermost = depth_++ == 0;
  if (outermost) {
    if (!acquire_prepped_) BeginOcs(lock_id);
    acquire_prepped_ = false;
  }
  // Lamport resync: adopt the previous releaser's stamp frontier. If it
  // overtook our lease, discard the lease's remainder so the next stamp
  // we issue (from a fresh block) exceeds every stamp issued before the
  // release — the ordering recovery's reverse-stamp replay relies on for
  // undo records to the same location.
  const std::uint64_t observed =
      lock->release_seq.load(std::memory_order_acquire);
  if (observed > seq_frontier_) {
    const std::uint64_t previous = seq_frontier_;
    seq_frontier_ = observed;
    if (seq_next_ != seq_limit_ && seq_next_ <= seq_frontier_) {
      seq_next_ = seq_limit_;  // spent; IssueSeq re-leases
      ++stats_.seq_resyncs;
      TSP_TRACE_EVENT(trace_, obs::EventCode::kSeqResync, observed, previous,
                      lock_id);
    }
  }
  const std::uint64_t dep = lock->last_release.load(std::memory_order_acquire);
  // Record a dependency edge unless the previous releasing OCS can
  // never be rolled back (already stable) or is our own (same-thread
  // program order is an implicit dependency recovery always honors).
  // The kLastReleaseStable flag is the releaser pre-answering the
  // stability question, saving the StableOcsOf load — a cross-core
  // cache miss on contended locks — on the common path.
  std::uint64_t recorded_dep = 0;
  if (dep != 0 && (dep & kLastReleaseStable) == 0 &&
      UnpackThread(dep) != thread_id_ &&
      UnpackOcs(dep) > runtime_->StableOcsOf(UnpackThread(dep))) {
    recorded_dep = dep;
    current_deps_.push_back(dep);
    ++stats_.deps_recorded;
  }
  // The acquire entry both opens the OCS (at nesting depth 0) and
  // carries the dependency edge; recovery reconstructs OCS boundaries
  // from acquire/release nesting, as Atlas does. The outermost entry
  // was staged by BeginOcs and is still unpublished here, so the dep
  // can be patched in place; nested acquires append (and thereby also
  // publish anything staged).
  if (outermost) {
    staged_acquire_->payload = recorded_dep;
    staged_acquire_ = nullptr;  // patched; never touch it post-publish
  } else {
    AppendEntry(EntryKind::kAcquire, 0, lock_id, current_ocs_, recorded_dep);
  }
}

void AtlasThread::OnReleaseBegin(PLockWord* lock, std::uint32_t lock_id) {
  TSP_DCHECK_GT(depth_, 0);
  pheap::TspSanitizer::NoteOcsDepth(depth_ - 1);
  // Fast-path eligibility: outermost, dependency-free, and every
  // earlier OCS of this thread already stable — then this OCS is stable
  // the moment it commits. Decided before the release entry would be
  // written, because the fast path never writes one: the rewind would
  // erase it in the same breath, and a crash before the rewind simply
  // rolls the OCS back — the mutex is still held here, so no thread has
  // observed its writes. Deferred frees do not disqualify: stability is
  // exactly when they are due, so OnReleaseFinish applies them.
  // The acquire pairs with a pass's release of stable_ocs: its head
  // stores for earlier OCSes happen before our rewind's head store.
  fast_commit_ = depth_ == 1 && current_deps_.empty() &&
                 slot_->stable_ocs.load(std::memory_order_acquire) ==
                     current_ocs_ - 1;
  if (!fast_commit_) {
    // Also publishes any still-staged bracket entries: an OCS that
    // stays in the ring until a pass needs its full bracket there.
    AppendEntry(EntryKind::kRelease, 0, lock_id, current_ocs_, current_ocs_);
  }
  if (--depth_ == 0) {
    // The outermost release IS the commit record.
    slot_->committed_ocs.store(current_ocs_, std::memory_order_release);
    if (fast_commit_) {
      // Immediately immune to rollback: rewind the ring to this OCS's
      // begin position before the mutex is released, so the next
      // acquirer observes this OCS stable and records no dependency
      // edge, and back-to-back OCSes rewrite the same hot ring entries
      // instead of walking the ring. The tail store is the commit point
      // for recovery: before it the OCS is open in the ring and rolls
      // back whole (its counter slots too, being above stable_ocs);
      // after it the OCS is out of the window, and a slot whose OCS is
      // absent from the window is never applied. Staged entries are
      // dropped. No pass can race: our pending queue is empty, and a
      // late head store from the last pass writes the end of the last
      // published OCS, which is this OCS's begin position.
      staged_ = 0;
      slot_->tail.store(current_ocs_begin_tail_, std::memory_order_release);
      slot_->stable_ocs.store(current_ocs_, std::memory_order_release);
      slot_->head.store(current_ocs_begin_tail_, std::memory_order_release);
      ++stats_.fast_path_commits;
    }
    if (ocs_trace_open_) {
      // Only OCSes that became ring-visible emitted a begin event;
      // close exactly those by moving the ring's commit watermark, and
      // do it here — still before the mutex is released — so the
      // recorder's commit cannot trail the ring's by a futex wake-up: a
      // kill in that window would make the recorder claim an open span
      // recovery never rolls back.
      ocs_trace_open_ = false;
      TSP_TRACE_COMMIT(trace_, PackThreadOcs(thread_id_, current_ocs_));
    }
    finish_pending_ = true;
  }
  // Publish ourselves as the last releaser while still holding the
  // mutex: the next acquirer depends on this OCS, and must order every
  // stamp it issues after this acquire past our whole causal past
  // (seq_frontier_, not just our own issued stamps — an OCS that issues
  // no stamps still relays frontiers it observed). Runs after the
  // commit block so a fast-path commit can vouch for its own stability
  // (kLastReleaseStable) only once the rewind is already done.
  lock->release_seq.store(seq_frontier_, std::memory_order_release);
  lock->last_release.store(PackThreadOcs(thread_id_, current_ocs_) |
                               (fast_commit_ ? kLastReleaseStable : 0),
                           std::memory_order_release);
}

void AtlasThread::OnReleaseFinish() {
  if (!finish_pending_) return;
  finish_pending_ = false;
  ++stats_.ocses_committed;
  if (fast_commit_) {
    // Stable since the rewind, so the deferred frees are due now:
    // they run here, after the mutex drop, into this thread's own
    // magazine. A crash before they finish leaks the blocks to the
    // recovery GC; the unlinking stores cannot roll back any more.
    for (void* payload : current_deferred_frees_) {
      runtime_->heap()->Free(payload);
    }
    current_deferred_frees_.clear();
  } else {
    // Not stable at release: publish, then run a pass here and now. It
    // stabilizes this OCS (and applies its frees, on this thread) when
    // every dependency already is; otherwise the pass of a later
    // publish, a full ring or StabilizeNow will.
    ++stats_.published_commits;
    runtime_->stability()->Publish(
        thread_id_,
        CommittedOcs{current_ocs_,
                     slot_->tail.load(std::memory_order_relaxed),
                     std::move(current_deps_),
                     std::move(current_deferred_frees_)});
    current_deps_.clear();
    current_deferred_frees_.clear();
    runtime_->StabilizeNow();
  }
  fresh_spans_.clear();
  current_ocs_ = 0;
}

void AtlasThread::OnRelease(PLockWord* lock, std::uint32_t lock_id) {
  OnReleaseBegin(lock, lock_id);
  OnReleaseFinish();
}

void AtlasThread::NoteAlloc(const void* payload, std::uint32_t type_id) {
  if (depth_ == 0) return;
  const std::uint64_t offset =
      runtime_->heap()->region()->ToOffset(payload);
  // Register the payload span as OCS-fresh: stores into it skip undo
  // logging entirely (StageOldValue). If this OCS rolls back, the store
  // that would have published the object is undone with it, and the
  // recovery GC reclaims the unreachable span.
  const std::uint64_t payload_bytes =
      pheap::Allocator::HeaderOf(payload)->block_size -
      sizeof(pheap::BlockHeader);
  fresh_spans_.emplace_back(offset, offset + payload_bytes);
  // TSPRace mirrors the fresh-span exemption: init-phase stores into an
  // unpublished object must not seed the cell's candidate lockset.
  analysis::HookFreshSpan(payload, payload_bytes);
  // Staged, not published: the marker is diagnostics-only (recovery
  // reclaims leaked blocks by reachability), so it rides along with the
  // next capture's publish — or is dropped with the bracket when a
  // capture-free OCS fast-commits.
  StageEntry(EntryKind::kAlloc, 0, type_id, offset, current_ocs_);
}

void AtlasThread::DeferFree(void* payload) {
  if (depth_ == 0) {
    runtime_->heap()->Free(payload);
    return;
  }
  current_deferred_frees_.push_back(payload);
}

LogEntry* AtlasThread::StageEntry(EntryKind kind, std::uint8_t size,
                                  std::uint32_t aux,
                                  std::uint64_t addr_offset,
                                  std::uint64_t payload) {
  const std::uint64_t position =
      slot_->tail.load(std::memory_order_relaxed) + staged_;
  if (TSP_PREDICT_FALSE(
          position - slot_->head.load(std::memory_order_acquire) >
          ring_mask_)) {
    // Only head moves while we wait; position stays valid.
    HandleRingFull();
  }
  ++staged_;
  LogEntry* entry = &ring_[position & ring_mask_];
  entry->addr_offset = addr_offset;
  entry->payload = payload;
  entry->kind = kind;
  entry->size = size;
  entry->thread_id = thread_id_;
  entry->aux = aux;
  // Only undo records participate in the cross-thread reverse-order
  // replay; they are stamped from the thread's leased block. Release
  // entries record the stamp frontier for diagnostics (tsp_inspect);
  // other control entries carry no stamp.
  entry->seq = kind == EntryKind::kStore     ? IssueSeq()
               : kind == EntryKind::kRelease ? seq_frontier_
                                             : 0;
  return entry;
}

void AtlasThread::PublishStaged(bool ordered) {
  const std::uint32_t count = staged_;
  if (count == 0) return;  // every word hit a counter slot; nothing to order
  staged_ = 0;
  const std::uint64_t first = slot_->tail.load(std::memory_order_relaxed);
  stats_.log_entries_appended += count;
  if (TSP_PREDICT_FALSE(!ocs_trace_open_ && depth_ > 0)) {
    // First publication makes the OCS ring-visible; that is the moment
    // it "begins" as far as crash recovery can ever tell.
    ocs_trace_open_ = true;
    TSP_TRACE_EVENT(trace_, obs::EventCode::kOcsBegin,
                    PackThreadOcs(thread_id_, current_ocs_), 0, ocs_lock_id_);
  }
  if (count > 1) {
    ++stats_.batched_publishes;
    TSP_TRACE_EVENT(trace_, obs::EventCode::kLogBatchPublish,
                    PackThreadOcs(thread_id_, current_ocs_), count);
  }
  // Publish: recovery only trusts entries below tail, so every staged
  // entry is complete before any of them becomes visible.
  slot_->tail.store(first + count, std::memory_order_release);
  // Non-TSP mode pays for durability here; undo records must be durable
  // before their guarded stores are allowed to proceed (§4.2). The
  // staged range is contiguous in the ring except across the wrap, and
  // is ordered by a single trailing fence (E7 log batching).
  const PersistencePolicy& policy = runtime_->policy();
  const std::uint64_t until_wrap = ring_mask_ + 1 - (first & ring_mask_);
  const std::uint64_t first_run = count < until_wrap ? count : until_wrap;
  policy.FlushLogBytes(&ring_[first & ring_mask_],
                       first_run * sizeof(LogEntry));
  if (count > first_run) {
    policy.FlushLogBytes(ring_, (count - first_run) * sizeof(LogEntry));
  }
  if (ordered) policy.OrderLogPublication();
}

void AtlasThread::AppendEntry(EntryKind kind, std::uint8_t size,
                              std::uint32_t aux, std::uint64_t addr_offset,
                              std::uint64_t payload) {
  StageEntry(kind, size, aux, addr_offset, payload);
  PublishStaged(kind == EntryKind::kStore);
}

void AtlasThread::HandleRingFull() {
  // The ring can only stay full while old committed OCSes depend on peer
  // OCSes that have not committed yet. Prune inline and wait for peers;
  // this is bounded in correct programs (every critical section exits).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const std::uint64_t capacity = ring_mask_ + 1;
  for (;;) {
    runtime_->StabilizeNow();
    const std::uint64_t head = slot_->head.load(std::memory_order_acquire);
    if (slot_->tail.load(std::memory_order_relaxed) + staged_ - head <
        capacity) {
      return;
    }
    if (depth_ > 0 && head >= current_ocs_begin_tail_) {
      // Everything older is pruned; the ring is full of *this* OCS.
      TSP_LOG(FATAL)
          << "Atlas log ring overflow: one OCS wrote more than " << capacity
          << " log entries; enlarge the heap's runtime area";
    }
    if (std::chrono::steady_clock::now() > deadline) {
      TSP_LOG(FATAL)
          << "Atlas log ring overflow: a single OCS wrote more than "
          << capacity
          << " log entries, or a peer critical section never exits; "
          << "enlarge the heap's runtime area";
    }
    std::this_thread::yield();
  }
}

}  // namespace tsp::atlas
