// Copyright 2026 The TSP Authors.

#include "obs/recorder.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/process_id.h"

namespace tsp {
namespace obs {
namespace {

std::atomic<bool> g_trace_enabled{[] {
  const char* env = std::getenv("TSP_TRACE");
  return env == nullptr || std::strcmp(env, "0") != 0;
}()};

std::atomic<std::uint64_t> g_next_instance_id{1};

/// Per-thread cache of (recorder instance -> writer). Mirrors the Atlas
/// runtime's TLS binding: instance ids are never reused, so a stale entry
/// can never be confused with a live recorder.
struct TlsBinding {
  std::uint64_t instance_id;
  TraceWriter* writer;
};
thread_local std::vector<TlsBinding> tls_bindings;

/// Multi-process attach: recycle `slot` iff its stamped owner process is
/// dead. Same three-state protocol as the Atlas thread slots
/// (AtlasRuntime::MaybeHarvestSlot): liveness read → demote a dead
/// harvester → CAS claimed→harvesting elects exactly one survivor →
/// identity re-check closes the freed-and-reclaimed window → clear
/// identity pid-first → free. Rings carry no rollback obligation
/// (unlike Atlas slots there is no work between election and free — so
/// no self-stamp step), and a ring's events are discarded at the next
/// claim like any recycled ring. Dying inside the election window
/// leaves harvesting + the dead identity, which the demote branch
/// re-elects around.
void MaybeHarvestRing(TraceRingHeader* slot) {
  std::uint32_t state = slot->in_use.load(std::memory_order_acquire);
  if (state == kRingFree) return;
  const std::uint32_t pid = slot->owner_pid.load(std::memory_order_acquire);
  // pid == 0 under a claim: mid-stamp, or a pre-identity session. Assume
  // alive — a false "alive" only wastes a ring, a false "dead" would
  // hand a live peer's ring to a second writer.
  if (pid == 0) return;
  if (CheckLiveness(pid, slot->owner_birth) == Liveness::kAlive) return;
  if (state == kRingHarvesting) {
    // The harvester itself died mid-harvest. Demote to claimed so the
    // CAS below elects exactly one successor (possibly not us).
    slot->in_use.compare_exchange_strong(state, kRingClaimed,
                                         std::memory_order_acq_rel);
  }
  std::uint32_t expected = kRingClaimed;
  if (!slot->in_use.compare_exchange_strong(expected, kRingHarvesting,
                                            std::memory_order_acq_rel)) {
    return;  // another survivor won the handoff
  }
  const std::uint32_t pid2 = slot->owner_pid.load(std::memory_order_acquire);
  if (pid2 == 0 || CheckLiveness(pid2, slot->owner_birth) == Liveness::kAlive) {
    // Freed and re-claimed by a live thread between the reads above and
    // the CAS; put the state back untouched.
    slot->in_use.store(kRingClaimed, std::memory_order_release);
    return;
  }
  slot->owner_pid.store(0, std::memory_order_release);
  slot->owner_birth = 0;
  slot->in_use.store(kRingFree, std::memory_order_release);
}

}  // namespace

bool TraceEnabled() { return g_trace_enabled.load(std::memory_order_relaxed); }

void SetTraceEnabled(bool enabled) {
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

StatusOr<std::unique_ptr<Recorder>> Recorder::Attach(
    void* runtime_area, std::size_t runtime_area_size,
    const AttachOptions& options) {
  std::unique_ptr<Recorder> untraced;
#ifdef TSP_OBS_DISABLED
  (void)runtime_area;
  (void)runtime_area_size;
  (void)options;
  return untraced;
#else
  if (!TraceEnabled() || runtime_area == nullptr) return untraced;
  const std::size_t reservation = TraceReservationBytes(runtime_area_size);
  if (reservation == 0) return untraced;
  void* base =
      static_cast<std::uint8_t*>(runtime_area) + runtime_area_size -
      reservation;
  const Status area_status = TraceArea::Check(base, reservation);
  if (!area_status.ok()) {
    if (!options.allow_format) {
      // A crashed or shared heap: its area is evidence, never formatted.
      // Without the trace magic there is none to read, so run untraced;
      // another version or a torn geometry is refused with its reason.
      if (area_status.code() == StatusCode::kNotFound) return untraced;
      return area_status;
    }
    if (TraceArea::Format(base, reservation, kDefaultMaxTraceThreads) == 0) {
      return untraced;
    }
  }
  TraceArea area(base, reservation);
  if (!options.shared) {
    // Exclusive open: slot claims belong to threads of the previous
    // (possibly dead) session; clear them so this session's threads can
    // claim rings. Ring contents and head/tail survive untouched until a
    // new thread actually claims a slot, so post-crash readers that run
    // before the workload restarts still see the crashed session's
    // events. Under multi-process attach the claims belong to live peer
    // processes instead: leave them alone; writer() harvests only rings
    // whose stamped owner is dead.
    for (std::uint32_t i = 0; i < area.header()->max_threads; ++i) {
      TraceRingHeader* slot = area.ring(i);
      slot->owner_pid.store(0, std::memory_order_relaxed);
      slot->owner_birth = 0;
      slot->in_use.store(kRingFree, std::memory_order_relaxed);
    }
  }
  return std::unique_ptr<Recorder>(
      new Recorder(area, options.generation, options.shared));
#endif
}

Recorder::Recorder(TraceArea area, std::uint64_t generation, bool shared)
    : area_(area),
      generation_(generation),
      instance_id_(
          g_next_instance_id.fetch_add(1, std::memory_order_relaxed)),
      shared_(shared) {}

Recorder::~Recorder() = default;

TraceWriter* Recorder::writer() {
  for (const TlsBinding& binding : tls_bindings) {
    if (binding.instance_id == instance_id_) return binding.writer;
  }
  TraceAreaHeader* header = area_.header();
  const ProcessIdentity self = CurrentProcess();
  for (std::uint32_t i = 0; i < header->max_threads; ++i) {
    TraceRingHeader* slot = area_.ring(i);
    // Shared attach never mass-cleared the claims, so a corpse's ring
    // stays claimed until some survivor needs a slot — i.e. here.
    if (shared_) MaybeHarvestRing(slot);
    std::uint32_t expected = kRingFree;
    if (!slot->in_use.compare_exchange_strong(expected, kRingClaimed,
                                              std::memory_order_acq_rel)) {
      continue;
    }
    // Fresh claim: recycle the ring. This is the only place old events are
    // discarded, and it only happens once a new live thread needs the slot.
    slot->head.store(0, std::memory_order_relaxed);
    slot->tail.store(0, std::memory_order_relaxed);
    slot->commit_watermark.store(0, std::memory_order_relaxed);
    slot->generation = generation_;
    // Identity stamp (birth before pid; pid's release publishes both) so
    // peers sharing the area can harvest this ring if we die with it.
    slot->owner_birth = self.birth;
    slot->owner_pid.store(self.pid, std::memory_order_release);
    auto writer = std::make_unique<TraceWriter>(slot, area_.events(i),
                                               area_.event_mask());
    TraceWriter* raw = writer.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      writers_.push_back(std::move(writer));
    }
    tls_bindings.push_back(TlsBinding{instance_id_, raw});
    return raw;
  }
  return nullptr;  // all rings claimed; caller runs untraced
}

void Recorder::ReleaseCurrentThread() {
  for (auto it = tls_bindings.begin(); it != tls_bindings.end(); ++it) {
    if (it->instance_id != instance_id_) continue;
    TraceWriter* writer = it->writer;
    tls_bindings.erase(it);
    TraceRingHeader* slot = area_.ring(writer->ring_id());
    // Identity clears strictly before the free (pid first), mirroring
    // the Atlas slot release: a harvester that reads pid == 0 under a
    // claim backs off instead of stealing a ring mid-transition.
    slot->owner_pid.store(0, std::memory_order_release);
    slot->owner_birth = 0;
    slot->in_use.store(kRingFree, std::memory_order_release);
    return;
  }
}

std::uint64_t Recorder::EventsRecorded() const {
  const TraceAreaHeader* header = area_.header();
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < header->max_threads; ++i) {
    total += area_.ring(i)->tail.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace obs
}  // namespace tsp
