#include "lockfree/epoch.h"

#include <algorithm>

#include "analysis/race_hooks.h"
#include "common/owner_counter.h"
#include "obs/metrics.h"

namespace tsp::lockfree {
namespace {

std::atomic<std::uint64_t> g_next_instance_id{1};

// POD fast cache: the binding for the manager this thread touched last.
// Trivially constructible/destructible, so access compiles to a plain
// TLS load with no guard branch. slot == nullptr with a matching
// instance id means "bound to the shared overflow slot".
struct TlsBinding {
  std::uint64_t instance_id;
  void* slot;
};
thread_local TlsBinding t_fast_binding;  // zero-initialized

// Overflow cache for threads touching several managers; cold path only.
thread_local std::vector<TlsBinding> t_more_bindings;

}  // namespace

EpochManager::EpochManager(std::function<void(void*)> deleter)
    : deleter_(std::move(deleter)),
      instance_id_(g_next_instance_id.fetch_add(1)) {
  metrics_source_id_ = obs::DefaultRegistry().RegisterSource(
      [this](obs::SnapshotBuilder* builder) {
        const EpochStats stats = GetStats();
        builder->AddCounter("lockfree.epoch_advances", stats.epoch_advances);
        builder->AddCounter("lockfree.advance_attempts",
                            stats.advance_attempts);
        builder->AddCounter("lockfree.nodes_retired", stats.nodes_retired);
        builder->AddCounter("lockfree.nodes_freed", stats.nodes_freed);
        builder->AddCounter("lockfree.limbo_peak", stats.limbo_peak);
        builder->AddCounter("lockfree.slot_overflow", stats.overflow_threads);
      });
}

EpochManager::~EpochManager() {
  obs::DefaultRegistry().UnregisterSource(metrics_source_id_);
  for (Slot& slot : slots_) {
    for (auto& bucket : slot.limbo) {
      for (void* p : bucket) deleter_(p);
      bucket.clear();
    }
  }
  for (auto& [epoch, p] : shared_limbo_) deleter_(p);
  shared_limbo_.clear();
}

EpochManager::Slot* EpochManager::BindSlow() {
  // A thread that interleaves several managers keeps its latest in the
  // fast cache and the rest in a vector; swap on hit so ping-ponging
  // between two managers stays cheap.
  for (TlsBinding& binding : t_more_bindings) {
    if (binding.instance_id != instance_id_) continue;
    const TlsBinding promoted = binding;
    if (t_fast_binding.instance_id != 0) {
      binding = t_fast_binding;
    } else {
      binding = t_more_bindings.back();
      t_more_bindings.pop_back();
    }
    t_fast_binding = promoted;
    return static_cast<Slot*>(promoted.slot);
  }
  Slot* claimed = nullptr;
  for (Slot& slot : slots_) {
    std::uint32_t expected = 0;
    if (slot.claimed.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
      claimed = &slot;
      break;
    }
  }
  if (claimed == nullptr) {
    // Every slot is taken: degrade to the shared overflow slot instead
    // of aborting. Correct but serialized — worth a warning and a
    // counter so saturation shows up in lockfree.slot_overflow.
    overflow_threads_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(shared_mutex_);
    if (!overflow_warned_) {
      overflow_warned_ = true;
      TSP_LOG(WARNING) << "all " << kMaxThreads
                       << " epoch slots are in use; falling back to the "
                       << "shared overflow slot (serialized). Long-lived "
                       << "workers should call UnregisterCurrentThread.";
    }
  }
  if (t_fast_binding.instance_id != 0) {
    t_more_bindings.push_back(t_fast_binding);
  }
  t_fast_binding = {instance_id_, claimed};
  return claimed;
}

void EpochManager::UnregisterCurrentThread() {
  auto release = [](void* raw_slot) {
    // Shared-slot threads (raw_slot == nullptr) claimed nothing; the
    // overflow count is cumulative by design.
    if (raw_slot == nullptr) return;
    auto* slot = static_cast<Slot*>(raw_slot);
    TSP_CHECK_EQ(slot->state.load(std::memory_order_relaxed), 0u)
        << "unregistering inside an epoch guard";
    // Limbo stays with the slot; it is drained by whichever thread
    // claims the slot next, or at manager destruction.
    slot->claimed.store(0, std::memory_order_release);
  };
  if (t_fast_binding.instance_id == instance_id_) {
    release(t_fast_binding.slot);
    if (!t_more_bindings.empty()) {
      t_fast_binding = t_more_bindings.back();
      t_more_bindings.pop_back();
    } else {
      t_fast_binding = {0, nullptr};
    }
    return;
  }
  for (auto it = t_more_bindings.begin(); it != t_more_bindings.end(); ++it) {
    if (it->instance_id != instance_id_) continue;
    release(it->slot);
    t_more_bindings.erase(it);
    return;
  }
}

bool EpochManager::CurrentThreadOnSharedSlot() {
  if (t_fast_binding.instance_id == instance_id_) {
    return t_fast_binding.slot == nullptr;
  }
  for (const TlsBinding& binding : t_more_bindings) {
    if (binding.instance_id == instance_id_) return binding.slot == nullptr;
  }
  return false;
}

EpochManager::Slot* EpochManager::Enter() {
  // Accesses under an epoch guard are §4.1 traversal-phase accesses;
  // TSPRace exempts them from the lockset discipline.
  analysis::HookEpochEnter();
  Slot* slot;
  if (TSP_PREDICT_TRUE(t_fast_binding.instance_id == instance_id_)) {
    slot = static_cast<Slot*>(t_fast_binding.slot);
  } else {
    slot = BindSlow();
  }
  if (TSP_PREDICT_FALSE(slot == nullptr)) {
    EnterShared();
    return nullptr;
  }
  // Announce-and-revalidate: after the (seq_cst) announcement becomes
  // visible, re-read the global epoch; if it moved, re-announce. Once
  // announcement == global, the epoch can advance at most once more
  // while this thread stays active — the lag-one invariant that makes
  // a three-bucket limbo safe.
  std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  for (;;) {
    slot->state.store((epoch << 1) | 1, std::memory_order_seq_cst);
    const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
    if (TSP_PREDICT_TRUE(now == epoch)) return slot;
    epoch = now;
  }
}

void EpochManager::Exit(Slot* slot) {
  if (TSP_PREDICT_FALSE(slot == nullptr)) {
    ExitShared();
    analysis::HookEpochExit();
    return;
  }
  slot->state.store(0, std::memory_order_release);
  // Amortized drain for read-mostly phases: once this thread stops
  // retiring, no retirement calls TryAdvance for it, so the occasional
  // exit-path attempt keeps its limbo from pinning memory. Only its own
  // limbo counts: an advance frees no other slot's.
  if (TSP_PREDICT_FALSE(++slot->ops_since_advance >= kAdvanceEveryOps)) {
    slot->ops_since_advance = 0;
    if (slot->retired.load(std::memory_order_relaxed) !=
        slot->freed.load(std::memory_order_relaxed)) {
      TryAdvance(slot);
    }
  }
  analysis::HookEpochExit();
}

void EpochManager::EnterShared() {
  std::lock_guard<std::mutex> lock(shared_mutex_);
  if (shared_count_++ == 0) {
    // First thread in an episode announces exactly like a private slot.
    // Later piggybackers are covered by the continuously-active
    // announcement: the global epoch cannot advance more than once past
    // it while the episode lasts.
    std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
    for (;;) {
      shared_state_.store((epoch << 1) | 1, std::memory_order_seq_cst);
      const std::uint64_t now = global_epoch_.load(std::memory_order_seq_cst);
      if (now == epoch) break;
      epoch = now;
    }
  }
}

void EpochManager::ExitShared() {
  std::lock_guard<std::mutex> lock(shared_mutex_);
  TSP_CHECK_GT(shared_count_, 0u);
  if (--shared_count_ == 0) {
    shared_state_.store(0, std::memory_order_release);
  }
}

void EpochManager::RetireShared(void* p) {
  bool advance;
  {
    std::lock_guard<std::mutex> lock(shared_mutex_);
    shared_limbo_.emplace_back(global_epoch_.load(std::memory_order_acquire),
                               p);
    ++shared_retired_;
    shared_limbo_peak_ = std::max<std::uint64_t>(shared_limbo_peak_,
                                                 shared_limbo_.size());
    advance = shared_retired_ % kAdvanceEveryRetires == 0;
  }
  if (advance) TryAdvance(nullptr);
}

void EpochManager::Retire(void* p) {
  Slot* slot;
  if (TSP_PREDICT_TRUE(t_fast_binding.instance_id == instance_id_)) {
    slot = static_cast<Slot*>(t_fast_binding.slot);
  } else {
    slot = BindSlow();
  }
  if (TSP_PREDICT_FALSE(slot == nullptr)) {
    RetireShared(p);
    return;
  }
  const std::uint64_t epoch = global_epoch_.load(std::memory_order_acquire);
  const std::size_t bucket = epoch % 3;
  if (slot->limbo_epoch[bucket] != epoch) {
    // The bucket holds retirements from epoch-3 or older: every thread
    // has long moved past them.
    DrainBucket(slot, bucket);
    slot->limbo_epoch[bucket] = epoch;
  }
  slot->limbo[bucket].push_back(p);
  const std::uint64_t retired = Bump(slot->retired);
  const std::uint64_t pending =
      retired - slot->freed.load(std::memory_order_relaxed);
  if (pending > slot->limbo_peak.load(std::memory_order_relaxed)) {
    slot->limbo_peak.store(pending, std::memory_order_relaxed);
  }
  if (retired % kAdvanceEveryRetires == 0) TryAdvance(slot);
}

void EpochManager::DrainBucket(Slot* slot, std::size_t bucket) {
  if (slot->limbo[bucket].empty()) return;
  for (void* p : slot->limbo[bucket]) deleter_(p);
  Bump(slot->freed, slot->limbo[bucket].size());
  slot->limbo[bucket].clear();
}

void EpochManager::TryAdvance(Slot* self) {
  advance_attempts_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  for (const Slot& slot : slots_) {
    // seq_cst so this scan is ordered after announcements in Enter's
    // seq_cst store (see the lag-one invariant there).
    const std::uint64_t state = slot.state.load(std::memory_order_seq_cst);
    if ((state & 1) != 0 && (state >> 1) != epoch) {
      return;  // a thread is still active in an older epoch
    }
  }
  const std::uint64_t shared = shared_state_.load(std::memory_order_seq_cst);
  if ((shared & 1) != 0 && (shared >> 1) != epoch) return;
  std::uint64_t expected = epoch;
  if (!global_epoch_.compare_exchange_strong(expected, epoch + 1,
                                             std::memory_order_acq_rel)) {
    return;
  }
  advances_.fetch_add(1, std::memory_order_relaxed);
  // Batched reclamation: free everything of ours that has aged out of
  // the three-epoch grace window (no thread can hold a reference to a
  // node retired at e once the global epoch reaches e+3), plus any aged
  // shared-slot retirements.
  const std::uint64_t current = epoch + 1;
  if (self != nullptr) {
    for (std::size_t b = 0; b < 3; ++b) {
      const std::uint64_t e = self->limbo_epoch[b];
      if (e == 0 || e + 3 > current) continue;
      DrainBucket(self, b);
      self->limbo_epoch[b] = 0;
    }
  }
  {
    std::unique_lock<std::mutex> lock(shared_mutex_, std::try_to_lock);
    if (lock.owns_lock() && !shared_limbo_.empty()) {
      std::uint64_t n = 0;
      auto keep = shared_limbo_.begin();
      for (auto& entry : shared_limbo_) {
        if (entry.first + 3 <= current) {
          deleter_(entry.second);
          ++n;
        } else {
          *keep++ = entry;
        }
      }
      shared_limbo_.erase(keep, shared_limbo_.end());
      shared_freed_ += n;
    }
  }
}

std::size_t EpochManager::LimboCount() const {
  std::size_t total = 0;
  for (const Slot& slot : slots_) {
    for (const auto& bucket : slot.limbo) total += bucket.size();
  }
  std::lock_guard<std::mutex> lock(shared_mutex_);
  return total + shared_limbo_.size();
}

EpochStats EpochManager::GetStats() const {
  EpochStats stats;
  stats.epoch_advances = advances_.load(std::memory_order_relaxed);
  stats.advance_attempts = advance_attempts_.load(std::memory_order_relaxed);
  stats.overflow_threads = overflow_threads_.load(std::memory_order_relaxed);
  for (const Slot& slot : slots_) {
    stats.nodes_retired += slot.retired.load(std::memory_order_relaxed);
    stats.nodes_freed += slot.freed.load(std::memory_order_relaxed);
    stats.limbo_peak += slot.limbo_peak.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(shared_mutex_);
  stats.nodes_retired += shared_retired_;
  stats.nodes_freed += shared_freed_;
  stats.limbo_peak += shared_limbo_peak_;
  return stats;
}

}  // namespace tsp::lockfree
