#include "lockfree/epoch.h"

#include "analysis/race_hooks.h"
#include "common/logging.h"
#include "common/owner_counter.h"
#include "obs/metrics.h"

namespace tsp::lockfree {
namespace {

std::atomic<std::uint64_t> g_next_instance_id{1};

// POD fast cache: the binding for the manager this thread touched last.
// Trivially constructible/destructible, so access compiles to a plain
// TLS load with no guard branch.
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
      });
}

EpochManager::~EpochManager() {
  obs::DefaultRegistry().UnregisterSource(metrics_source_id_);
  Slot* slot = slots_.load(std::memory_order_acquire);
  while (slot != nullptr) {
    for (auto& bucket : slot->limbo) {
      for (void* p : bucket) deleter_(p);
    }
    Slot* next = slot->next;
    delete slot;
    slot = next;
  }
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
  for (Slot* slot = slots_.load(std::memory_order_acquire); slot != nullptr;
       slot = slot->next) {
    std::uint32_t expected = 0;
    if (slot->claimed.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel)) {
      claimed = slot;
      break;
    }
  }
  if (claimed == nullptr) {
    claimed = new Slot;
    claimed->claimed.store(1, std::memory_order_relaxed);
    claimed->next = slots_.load(std::memory_order_relaxed);
    // A TryAdvance that loaded the head before this link misses the new
    // slot, just as it misses an announcement stored after its load.
    // Enter's announce-and-revalidate covers both: such a scan read the
    // epoch before this thread revalidates it, so it advances the epoch
    // at most once past the one this thread announces.
    while (!slots_.compare_exchange_weak(claimed->next, claimed,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
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

void EpochManager::Retire(void* p) {
  Slot* slot;
  if (TSP_PREDICT_TRUE(t_fast_binding.instance_id == instance_id_)) {
    slot = static_cast<Slot*>(t_fast_binding.slot);
  } else {
    slot = BindSlow();
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
  // seq_cst so this scan is ordered after the links in BindSlow and the
  // announcements in Enter (see the lag-one invariant there).
  for (const Slot* slot = slots_.load(std::memory_order_seq_cst);
       slot != nullptr; slot = slot->next) {
    const std::uint64_t state = slot->state.load(std::memory_order_seq_cst);
    if ((state & 1) != 0 && (state >> 1) != epoch) {
      return;  // a thread is still active in an older epoch
    }
  }
  std::uint64_t expected = epoch;
  if (!global_epoch_.compare_exchange_strong(expected, epoch + 1,
                                             std::memory_order_acq_rel)) {
    return;
  }
  advances_.fetch_add(1, std::memory_order_relaxed);
  // Batched reclamation: free everything of ours that has aged out of
  // the three-epoch grace window (no thread can hold a reference to a
  // node retired at e once the global epoch reaches e+3).
  const std::uint64_t current = epoch + 1;
  for (std::size_t b = 0; b < 3; ++b) {
    const std::uint64_t e = self->limbo_epoch[b];
    if (e == 0 || e + 3 > current) continue;
    DrainBucket(self, b);
    self->limbo_epoch[b] = 0;
  }
}

std::size_t EpochManager::LimboCount() const {
  std::size_t total = 0;
  for (const Slot* slot = slots_.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    for (const auto& bucket : slot->limbo) total += bucket.size();
  }
  return total;
}

EpochStats EpochManager::GetStats() const {
  EpochStats stats;
  stats.epoch_advances = advances_.load(std::memory_order_relaxed);
  stats.advance_attempts = advance_attempts_.load(std::memory_order_relaxed);
  for (const Slot* slot = slots_.load(std::memory_order_acquire);
       slot != nullptr; slot = slot->next) {
    stats.nodes_retired += slot->retired.load(std::memory_order_relaxed);
    stats.nodes_freed += slot->freed.load(std::memory_order_relaxed);
    stats.limbo_peak += slot->limbo_peak.load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace tsp::lockfree
