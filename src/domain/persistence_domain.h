// Copyright 2026 The TSP Authors.
// PersistenceDomain: the library's one-call integration point.
//
// Give it fault-tolerance requirements and a hardware profile; it runs
// the §3 planning exercise (core/tsp_planner.h), opens the persistent
// heap, performs crash recovery if needed, attaches an Atlas runtime in
// exactly the mode the plan prescribes (none / log-only / log+flush),
// and exposes the commit-point hook for non-TSP plans that must msync.
//
// In other words: applications state *what failures they must survive*;
// the domain decides how much (or, with TSP, how little) to pay for it.
// workload::MapSession is a domain plus a map: each map variant's row
// states its requirements, and the domain derives its Atlas mode.
//
// A domain can be sharded: Options::shards > 1 opens N heaps (path,
// path + ".shard1", ...), each in its own address slot with its own
// Atlas runtime and undo logs, and recovery runs shard by shard
// (atlas::RecoverHeap).
// Route data to shards however the application likes; maps/ShardedMap
// is the ready-made key-hash router.

#ifndef TSP_DOMAIN_PERSISTENCE_DOMAIN_H_
#define TSP_DOMAIN_PERSISTENCE_DOMAIN_H_

#include <memory>
#include <string>
#include <vector>

#include "atlas/recovery.h"
#include "atlas/runtime.h"
#include "common/status.h"
#include "core/failure_model.h"
#include "core/tsp_planner.h"
#include "pheap/heap.h"
#include "pheap/type_registry.h"

namespace tsp::domain {

class PersistenceDomain {
 public:
  struct Options {
    std::string path;
    Requirements requirements;
    HardwareProfile hardware = HardwareProfile::ConventionalServer();
    /// Per-shard region options (size is per shard). region.backend
    /// selects the storage mechanics for every shard.
    pheap::RegionOptions region;
    /// Number of independent shard heaps (1 = the classic single heap).
    int shards = 1;
    /// Sequence stamps each Atlas thread leases per block from the
    /// shared counter (plans with an Atlas mode); see
    /// AtlasRuntime::Options.
    std::uint32_t seq_block_size = 64;
  };

  /// Opens (creating if absent) the domain. `registry` supplies the GC
  /// trace functions for recovery, which runs (Atlas rollback + GC,
  /// shard by shard) when the previous session crashed. Fails
  /// FailedPrecondition, before any file is created, when the shard set
  /// on disk disagrees with Options::shards: shard 0 exists but a
  /// requested shard does not, or `path.shard<shards>` exists.
  static StatusOr<std::unique_ptr<PersistenceDomain>> Open(
      const Options& options, const pheap::TypeRegistry* registry);

  /// Cooperative multi-process join: attaches to a domain that already
  /// exists (typically held open by other processes) without consuming
  /// its crash/clean bookkeeping. No wholesale recovery ever runs —
  /// instead each shard's AtlasRuntime::Attach scans the persistent
  /// slot headers for claimants whose process has died and rolls back
  /// only *their* open critical sections, while live attachers keep
  /// serving. Requires a plan with an Atlas mode (the slot-identity
  /// machinery is the robust-lock substrate): any other plan fails
  /// InvalidArgument before a file is touched. Close with CloseDetach.
  static StatusOr<std::unique_ptr<PersistenceDomain>> Attach(
      const Options& options, const pheap::TypeRegistry* registry);

  /// OK when Attach accepts `plan`; otherwise the InvalidArgument it
  /// refuses with, whose message says why.
  static Status CheckAttachable(const PersistencePlan& plan);

  /// The backing heap paths Open will use (index-aligned with shard
  /// numbers). Useful for cleanup and offline inspection of a shard
  /// set (tsp_inspect check <paths...>).
  static std::vector<std::string> ShardPaths(const Options& options);

  ~PersistenceDomain();

  PersistenceDomain(const PersistenceDomain&) = delete;
  PersistenceDomain& operator=(const PersistenceDomain&) = delete;

  int shard_count() const { return static_cast<int>(heaps_.size()); }

  /// Shard 0's heap (the only heap for unsharded domains).
  pheap::PersistentHeap* heap() { return heaps_[0].get(); }
  pheap::PersistentHeap* heap(int shard) { return heaps_[shard].get(); }

  /// The Atlas runtime (shard 0's for sharded domains), or nullptr when
  /// the plan needs no rollback machinery (non-blocking applications).
  atlas::AtlasRuntime* runtime() {
    return runtimes_.empty() ? nullptr : runtimes_[0].get();
  }
  atlas::AtlasRuntime* runtime(int shard) {
    return runtimes_.empty() ? nullptr : runtimes_[shard].get();
  }

  /// The plan chosen for this domain (inspect plan().is_tsp etc.).
  const PersistencePlan& plan() const { return plan_; }

  /// True if this open performed crash recovery on any shard.
  bool recovered() const { return recovered_; }
  /// Shard-summed recovery statistics.
  const atlas::FullRecoveryResult& recovery() const { return recovery_; }
  /// Per-shard recovery results (index-aligned with shard numbers).
  const std::vector<atlas::FullRecoveryResult>& shard_recoveries() const {
    return shard_recoveries_;
  }

  /// Commit point: performs the plan's runtime durability action.
  /// A no-op for TSP plans; msync(MS_SYNC) on every shard for
  /// kSyncMsync plans (cache flushing plans pay per log entry instead,
  /// inside the runtime).
  Status Commit();

  /// Runs a last stability pass on every shard (applying the deferred
  /// frees it proves due), then marks an orderly shutdown. Fatal on
  /// attached domains (the clean flag belongs to the opening session).
  void CloseClean();

  /// Orderly leave of an attached domain: runs a last stability pass,
  /// tears down the runtimes and unmaps without touching the
  /// clean-shutdown flags. Also safe on owned domains, where it runs no
  /// pass and simulates a crash.
  void CloseDetach();

  /// True for domains produced by Attach.
  bool attached() const { return attached_; }

 private:
  PersistenceDomain() = default;

  /// Open (attach = false) or Attach (attach = true).
  static StatusOr<std::unique_ptr<PersistenceDomain>> Start(
      const Options& options, const pheap::TypeRegistry* registry,
      bool attach);

  PersistencePlan plan_;
  std::vector<std::unique_ptr<pheap::PersistentHeap>> heaps_;
  std::vector<std::unique_ptr<atlas::AtlasRuntime>> runtimes_;
  bool recovered_ = false;
  bool attached_ = false;
  atlas::FullRecoveryResult recovery_;
  std::vector<atlas::FullRecoveryResult> shard_recoveries_;
};

}  // namespace tsp::domain

#endif  // TSP_DOMAIN_PERSISTENCE_DOMAIN_H_
