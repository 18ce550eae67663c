// Copyright 2026 The TSP Authors.
// PMutex: a mutex whose critical sections double as Atlas failure-atomic
// regions.
//
// Wraps std::mutex and notifies the Atlas runtime on acquire/release so
// that outermost-critical-section boundaries, and the release→acquire
// dependency edges between OCSes, are captured in the undo log. The
// mutex state itself is volatile (a held mutex is meaningless after a
// crash: the paper's recovery model rolls interrupted OCSes back instead
// of resuming them); only the log entries persist.
//
// A PMutex constructed with a null runtime degrades to a plain mutex
// (the "no Atlas" baseline).

#ifndef TSP_ATLAS_PMUTEX_H_
#define TSP_ATLAS_PMUTEX_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>

#include "analysis/race_hooks.h"
#include "atlas/runtime.h"

namespace tsp::atlas {

/// Cache-line aligned so the futex word and the lock_word_ dependency
/// channel always share one line: an acquirer's miss on the mutex also
/// brings in the releaser's frontier, instead of paying a second
/// cross-core miss inside the critical section.
class alignas(64) PMutex {
 public:
  /// Creates a mutex tied to `runtime` (may be null for an unlogged
  /// plain mutex).
  explicit PMutex(AtlasRuntime* runtime = nullptr)
      : runtime_(runtime),
        lock_id_(runtime != nullptr ? runtime->AssignLockId() : 0) {}

  PMutex(const PMutex&) = delete;
  PMutex& operator=(const PMutex&) = delete;

  /// The calling thread's logging context, or null when this mutex does
  /// not log (no runtime, or logging disabled). Callers holding several
  /// operations under one guard can fetch it once and use LockWith /
  /// UnlockWith to skip the per-call thread-local lookup.
  AtlasThread* LoggingThread() const {
    return runtime_ != nullptr && runtime_->policy().logging_enabled()
               ? runtime_->CurrentThread()
               : nullptr;
  }

  /// Binds this mutex to a persistent RobustLockWord (TSP analog of
  /// PTHREAD_MUTEX_ROBUST). Once bound, lock() additionally acquires
  /// `word->owner` by CAS-ing in the calling thread's slot token, so
  /// the mutex arbitrates across every process attached to the domain:
  /// the std::mutex keeps serializing threads *within* a process (at
  /// most one spins on the word per process), the word serializes the
  /// processes. The dependency/frontier channel moves from the DRAM
  /// lock_word_ into `word->dependency`, so release→acquire edges
  /// spanning processes persist and survive any one process's death.
  ///
  /// A contended acquire that finds the current owner's claimant slot
  /// dead (per process_id.h liveness) harvests the corpse — rolling
  /// back its open OCS via AtlasRuntime::HarvestDeadOwner — and steals
  /// the word. Robust operation requires logging (the slot token *is*
  /// the Atlas thread slot); with logging off the binding is ignored.
  ///
  /// A bound mutex is always an outermost lock: lock() inside an open
  /// OCS is fatal. Nested, it could be released while the OCS stays
  /// open, so a live peer process could commit an OCS that depends on
  /// one a harvest later rolls back — and a harvest is slot-local, it
  /// never cascades into the peer (DESIGN.md §12).
  ///
  /// Call before first use (not thread-safe against concurrent lock()).
  void BindRobust(RobustLockWord* word) { robust_ = word; }
  bool robust() const { return robust_ != nullptr; }

  /// lock()/unlock() with a pre-fetched LoggingThread() result (null =
  /// plain mutex). Keeps the thread-local lookup out of the critical
  /// section; `thread` must belong to the calling thread.
  void LockWith(AtlasThread* thread) {
    if (thread != nullptr) {
      TSP_CHECK(robust_ == nullptr || !thread->in_ocs())
          << "robust PMutex (lock id " << lock_id_
          << ") acquired inside an open OCS; a lock bound to a "
          << "RobustLockWord must be the outermost lock";
      // Split hooks keep the hold time short: the thread-private
      // begin-of-OCS work runs before blocking on the mutex, and only
      // the resync + dependency edge runs with it held.
      thread->OnAcquirePrep(lock_id_);
      mutex_.lock();
      if (robust_ != nullptr) {
        RobustAcquire(thread);
        thread->OnAcquire(&robust_->dependency, lock_id_);
      } else {
        thread->OnAcquire(&lock_word_, lock_id_);
      }
    } else {
      mutex_.lock();
    }
    // TSPRace keys locksets and the lock-order graph on the PMutex
    // address (process-unique; lock_id_ repeats across runtimes).
    analysis::HookLockAcquired(
        this, lock_id_, runtime_ != nullptr ? runtime_->instance_id() : 0);
  }

  void UnlockWith(AtlasThread* thread) {
    analysis::HookLockReleased(this);
    if (thread != nullptr) {
      bool hands_over_unstable = false;
      if (robust_ != nullptr) {
        // Commit (and publish the dependency frontier) strictly before
        // the owner clear hands the word to another process: a stealer
        // must only ever observe this OCS as fully committed.
        thread->OnReleaseBegin(&robust_->dependency, lock_id_);
        hands_over_unstable =
            (robust_->dependency.last_release.load(
                 std::memory_order_relaxed) &
             kLastReleaseStable) == 0;
        robust_->owner.store(0, std::memory_order_release);
      } else {
        thread->OnReleaseBegin(&lock_word_, lock_id_);
      }
      mutex_.unlock();
      thread->OnReleaseFinish();
      // The next owner may be a thread of another process that depends
      // on this unstable OCS; only our passes can stabilize it.
      if (hands_over_unstable) runtime_->StartPassThread();
    } else {
      mutex_.unlock();
    }
  }

  void lock() { LockWith(LoggingThread()); }

  void unlock() { UnlockWith(LoggingThread()); }

  AtlasRuntime* runtime() const { return runtime_; }
  std::uint32_t lock_id() const { return lock_id_; }
  RobustLockWord* robust_word() const { return robust_; }

 private:
  /// Spins until the calling thread's slot token owns the word. The
  /// slow path — a dead current owner — harvests the corpse's slot
  /// (rolling back its open OCS) and steals; HarvestDeadOwner's CAS
  /// handoff elects one harvester among racing survivors, but *any*
  /// waiter may then win the freed word, so the steal counter ticks at
  /// the winner, conditional on a harvest having happened.
  void RobustAcquire(AtlasThread* thread) {
    const std::uint64_t token =
        static_cast<std::uint64_t>(thread->thread_id()) + 1;
    bool harvested = false;
    for (;;) {
      std::uint64_t expected = 0;
      if (robust_->owner.compare_exchange_weak(expected, token,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        break;
      }
      if (expected != 0 && runtime_->HarvestDeadOwner(expected)) {
        harvested = true;
        continue;  // word now cleared (or claimed by a racing waiter)
      }
      std::this_thread::yield();
    }
    if (harvested) {
      if (RobustTableHeader* table = runtime_->robust_table()) {
        table->robust_steals.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  std::mutex mutex_;
  /// Most recent releaser's identity and sequence-stamp frontier; the
  /// dependency + stamp-ordering channel between OCSes (see PLockWord).
  /// Unused (in favor of robust_->dependency) once BindRobust ran.
  PLockWord lock_word_;
  AtlasRuntime* runtime_;
  /// Persistent cross-process lock word, or null (in-process mutex).
  RobustLockWord* robust_ = nullptr;
  std::uint32_t lock_id_;
};

/// RAII guard, analogous to std::lock_guard. Resolves the calling
/// thread's logging context once, before blocking, so neither lock nor
/// unlock pays the thread-local lookup inside the critical section.
class PMutexLock {
 public:
  explicit PMutexLock(PMutex* mutex)
      : PMutexLock(mutex, mutex->LoggingThread()) {}
  /// With a context the caller already resolved (mutex->LoggingThread(),
  /// null for a plain mutex), for callers that also store through it.
  PMutexLock(PMutex* mutex, AtlasThread* thread)
      : mutex_(mutex), thread_(thread) {
    mutex_->LockWith(thread_);
  }
  ~PMutexLock() { mutex_->UnlockWith(thread_); }

  PMutexLock(const PMutexLock&) = delete;
  PMutexLock& operator=(const PMutexLock&) = delete;

 private:
  PMutex* mutex_;
  AtlasThread* thread_;
};

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_PMUTEX_H_
