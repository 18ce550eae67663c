#include "atlas/stability.h"

#include <algorithm>

namespace tsp::atlas {

StabilityManager::StabilityManager(AtlasArea area, std::uint32_t max_threads,
                                   std::function<void(void*)> free_fn)
    : area_(area),
      free_fn_(std::move(free_fn)),
      pending_(max_threads),
      views_(max_threads) {}

void StabilityManager::Publish(std::uint16_t thread_id, CommittedOcs record) {
  PerThread& per_thread = pending_[thread_id];
  std::lock_guard<std::mutex> lock(per_thread.mutex);
  per_thread.queue.push_back(std::move(record));
}

bool StabilityManager::Tainted(std::uint64_t dep) const {
  const View& view = views_[UnpackThread(dep)];
  const std::uint64_t ocs = UnpackOcs(dep);
  if (ocs <= view.stable) return false;   // can never roll back
  if (ocs > view.committed) return true;  // open: a crash now undoes it
  // Committed but not stable: untainted only as one of its thread's
  // clean records. A record published after this pass read the queue
  // is not among them; the next pass sees it.
  const auto begin = view.records.begin();
  const auto end = begin + static_cast<std::ptrdiff_t>(view.clean);
  const auto it = std::lower_bound(
      begin, end, ocs, [](const CommittedOcs* record, std::uint64_t id) {
        return record->ocs_id < id;
      });
  return it == end || (*it)->ocs_id != ocs;
}

std::size_t StabilityManager::RunPass() {
  std::lock_guard<std::mutex> pass_lock(pass_mutex_);

  // Frontiers before records: an OCS that commits after these loads
  // counts as open this pass, and its record as unseen.
  for (std::size_t t = 0; t < views_.size(); ++t) {
    View& view = views_[t];
    const ThreadLogHeader* slot = area_.slot(t);
    view.committed = slot->committed_ocs.load(std::memory_order_acquire);
    view.stable = slot->stable_ocs.load(std::memory_order_acquire);
    view.records.clear();
    if (view.committed > view.stable) {  // else nothing is pending
      PerThread& per_thread = pending_[t];
      std::lock_guard<std::mutex> lock(per_thread.mutex);
      for (const CommittedOcs& record : per_thread.queue) {
        view.records.push_back(&record);
      }
    }
    view.clean = view.records.size();
  }

  // Taint = "may still be rolled back". Start from every record clean
  // and cut each thread's clean prefix at the first record with a
  // tainted dependency, to a fixed point. Cutting the prefix, not
  // marking one record, is program order: recovery rolls back every
  // later OCS of a thread whose earlier OCS rolls back, so a record
  // queued behind a tainted one is tainted whatever its own edges.
  // Cycles of committed OCSes with no tainted entry point stay clean,
  // which is correct: none of them can roll back.
  for (bool changed = true; changed;) {
    changed = false;
    for (View& view : views_) {
      for (std::size_t i = 0; i < view.clean; ++i) {
        const std::vector<std::uint64_t>& deps = view.records[i]->deps;
        if (std::any_of(deps.begin(), deps.end(),
                        [this](std::uint64_t dep) { return Tainted(dep); })) {
          view.clean = i;
          changed = true;
          break;
        }
      }
    }
  }

  // Per thread, retire the clean prefix front-first (ring heads may
  // only advance contiguously) and publish the new frontiers.
  std::size_t stabilized = 0;
  for (std::size_t t = 0; t < views_.size(); ++t) {
    const View& view = views_[t];
    if (view.clean == 0) continue;
    ThreadLogHeader* slot = area_.slot(t);
    for (std::size_t i = 0; i < view.clean; ++i) {
      const CommittedOcs& record = *view.records[i];
      slot->stable_ocs.store(record.ocs_id, std::memory_order_release);
      slot->head.store(record.end_tail, std::memory_order_release);
      for (void* payload : record.deferred_frees) free_fn_(payload);
    }
    PerThread& per_thread = pending_[t];
    std::lock_guard<std::mutex> lock(per_thread.mutex);
    per_thread.queue.erase(
        per_thread.queue.begin(),
        per_thread.queue.begin() + static_cast<std::ptrdiff_t>(view.clean));
    stabilized += view.clean;
  }
  return stabilized;
}

std::size_t StabilityManager::PendingCount() const {
  std::size_t total = 0;
  for (const PerThread& per_thread : pending_) {
    std::lock_guard<std::mutex> lock(per_thread.mutex);
    total += per_thread.queue.size();
  }
  return total;
}

}  // namespace tsp::atlas
