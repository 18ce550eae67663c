// Copyright 2026 The TSP Authors.

#include "workloads.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "atlas/recovery.h"
#include "common/flush.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "pheap/check.h"
#include "pheap/layout.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp::perfbench {
namespace {

using workload::C1Key;
using workload::C2Key;
using workload::HighKey;
using workload::MapSession;
using workload::MapVariant;

// lockfree-kv mix, in percent of calls: 50 Get, 20 Put, 20 IncrementBy,
// 10 Remove on uniform keys. Put and IncrementBy insert an absent key
// and Remove deletes a present one, so with live fraction f the live
// count is steady when 0.4 (1 - f) = 0.1 f, i.e. f = 0.8.
constexpr int kGetPct = 50;
constexpr int kPutPct = 20;
constexpr int kIncrPct = 20;
constexpr double kKvLiveFraction = 0.8;

// Windows with fewer timed calls of an op are left out of its quantiles.
constexpr std::uint64_t kMinWindowSamples = 1000;
// A crash victim that is still alive after this long has hung.
constexpr double kChildTimeoutS = 60;
// crash-recovery reads one of this many slices of H back after each
// cycle, so Get latency is sampled across the whole run.
constexpr std::uint64_t kReadBackSlices = 4;
// §5.1 iterations a worker takes from a post-recovery batch at a time.
constexpr std::uint64_t kBatchChunk = 1 << 10;

struct Sizes {
  std::uint64_t table1_high = 1 << 20;
  /// lockfree-kv times its mix on kv_hot_keys keys (and buckets), a set
  /// that stays in a core's own caches, then grows the map to kv_keys
  /// keys for the footprint and the restarts.
  std::uint64_t kv_hot_keys = 1 << 15;
  std::uint64_t kv_keys = 1 << 20;
  std::uint64_t crash_high = 1 << 21;
  /// §5.1 iterations per worker in warm-up and before the victim's kill;
  /// a post-recovery batch is batch_iterations per worker, shared.
  std::uint64_t warmup_iterations = 1 << 17;
  std::uint64_t kill_after = 1 << 17;
  std::uint64_t batch_iterations = 1 << 20;
  std::uint64_t kv_warmup_ops = 1 << 19;
  /// Set-ups per run (setup_s is their median). table1-logonly and
  /// lockfree-kv give each heap an equal share of the timed windows;
  /// crash-recovery cycles on the last one.
  int setups = 3;
  /// Unclean stops and reopens per measured heap of the failure-free
  /// workloads.
  int restarts = 2;
  int min_cycles = 3;
  int max_cycles = 50;
  /// Timed windows of about kWindowS each; throughput and latency
  /// quantiles are medians over windows.
  int windows = 20;
};

constexpr double kWindowS = 0.5;

Sizes SizesFor(const RunOptions& options) {
  Sizes s;
  s.windows = std::max(4, static_cast<int>(options.seconds / kWindowS + 0.5));
  if (options.quick) {
    s.table1_high = s.kv_keys = s.crash_high = 1 << 14;
    s.kv_hot_keys = 1 << 12;
    s.warmup_iterations = s.kill_after = s.batch_iterations = 1 << 10;
    s.kv_warmup_ops = 1 << 10;
    s.setups = 2;
    s.restarts = 1;
    s.min_cycles = 2;
    s.max_cycles = 2;
    s.windows = 4;
  }
  return s;
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001B3ULL + 0x9E3779B97F4A7C15ULL;
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream;
}

/// Breaks the allocated-block magic of the heap's root object: CheckHeap
/// and the recovery GC must both notice.
void ClobberRootMagic(pheap::PersistentHeap* heap) {
  auto* header = reinterpret_cast<pheap::BlockHeader*>(
      static_cast<char*>(heap->root<void>()) - sizeof(pheap::BlockHeader));
  header->magic = 0;
}

std::uint64_t ArenaBytes(pheap::PersistentHeap* heap) {
  return heap->GetAllocatorStats().bump_offset -
         heap->region()->header()->arena_offset;
}

struct LayerSample {
  obs::MetricsSnapshot registry;
  std::uint64_t flush_lines = 0;
  std::uint64_t fences = 0;
  std::uint64_t trace_events = 0;
};

/// Layer counts summed over the measured phases of a traced run.
struct LayerTotals {
  std::map<std::string, double> counters;
  std::vector<double> pending_unstable;
  double limbo_peak = 0;
  double flush_lines = 0;
  double fences = 0;
  double trace_events = 0;
  double calls = 0;
  double wall_s = 0;
  double worker_wall_s = 0;
  double worker_cpu_s = 0;
  double background_cpu_s = 0;
  double busy_s = 0;
  std::set<std::string> prefixes;
};

struct RecoveryRecord {
  double total_s = 0;
  double open_s = 0;
  double rollback_s = 0;
  double gc_s = 0;
  double attach_s = 0;
  atlas::RecoveryStats atlas;
  pheap::GcStats gc;
};

/// State shared by the three workloads: the pinned workers, heap storage,
/// output checks, spans and the numbers metrics are computed from.
class Bench {
 public:
  Bench(const RunOptions& options, WorkerPool* pool, RunResult* result)
      : options(options),
        sizes(SizesFor(options)),
        pool(pool),
        spans(options.traced,
              options.workload + "-" + std::to_string(options.seed) + "-" +
                  std::to_string(getpid())),
        result_(result),
        backend_(std::make_shared<MemfdBackend>()) {
    MapSession::RegisterAllTypes(&registry_);
  }

  const RunOptions& options;
  const Sizes sizes;
  WorkerPool* const pool;
  SpanLog spans;

  // Numbers the metrics are computed from.
  std::vector<double> setup_s, create_s, prefill_s, warmup_s;
  std::vector<double> check_s, invariants_s;
  std::vector<RecoveryRecord> recoveries;
  std::vector<double> throughput, put_p50, put_p99, incr_p50, incr_p99;
  std::vector<double> get_p50, get_p99, remove_p50, remove_p99;
  std::vector<double> heap_bytes_per_key, arena_bytes;
  LayerTotals layers;

  bool Corrupt(const char* name) const { return options.corrupt == name; }

  /// Records one output check; a failure also lands in the failures list.
  bool Check(const std::string& name, bool ok, const std::string& detail) {
    auto [it, inserted] = result_->checks.emplace(name, ok);
    if (!ok) {
      it->second = false;
      result_->failures.push_back(name + ": " + detail);
    }
    return ok;
  }
  bool failed() const { return !result_->failures.empty(); }
  void Attempted(std::uint64_t n) { result_->attempted += n; }
  void Failed(std::uint64_t n) { result_->failed += n; }
  /// A whole-state check failed: no call's result can be trusted.
  void FailAll() { fail_all_ = true; }

  MapSession::Config Config(MapVariant variant, const std::string& name,
                            std::uint64_t buckets) const {
    MapSession::Config config;
    config.variant = variant;
    config.path = options.workload + "-" + name;
    config.backend = backend_;
    config.hash_options.bucket_count = buckets;
    return config;
  }

  StatusOr<std::unique_ptr<MapSession>> Create(
      const MapSession::Config& config) {
    ScopedStep step(&spans, "workload.create");
    auto session = MapSession::OpenOrCreate(config);
    create_s.push_back(step.Stop());
    return session;
  }

  /// Unbinds the workers from the map, then closes the session: cleanly,
  /// or as a crash would leave it.
  void Close(std::unique_ptr<MapSession>* session, bool clean) {
    if (*session == nullptr) return;
    maps::Map* map = (*session)->map();
    pool->Run([map](int) { map->OnThreadExit(); });
    if (clean) {
      (*session)->CloseClean();
    } else {
      (*session)->CloseDetach();
    }
    session->reset();
  }

  void Discard(const MapSession::Config& config) {
    (void)backend_->Remove(config.path);
  }

  /// Reopens a heap left crashed: MapSession::OpenOrCreate as one call,
  /// or, when traced, the same pipeline as separately spanned public
  /// calls (open, Atlas rollback, GC, clean close, attach).
  StatusOr<std::unique_ptr<MapSession>> Recover(
      const MapSession::Config& config) {
    RecoveryRecord record;
    std::unique_ptr<MapSession> session;
    ScopedStep total(&spans, "recover");
    if (!options.traced && !Corrupt("recovery-gc")) {
      TSP_ASSIGN_OR_RETURN(session, MapSession::OpenOrCreate(config));
      record.total_s = total.Stop();
      if (!session->recovered()) {
        return Status::FailedPrecondition("reopen did not run recovery");
      }
      record.atlas = session->recovery_stats();
      record.gc = session->gc_stats();
    } else {
      std::unique_ptr<pheap::PersistentHeap> heap;
      {
        ScopedStep step(&spans, "pheap.open");
        TSP_ASSIGN_OR_RETURN(
            heap, pheap::PersistentHeap::Open(config.path, config.backend));
        record.open_s = step.Stop();
      }
      if (!heap->needs_recovery()) {
        return Status::FailedPrecondition("heap was not left crashed");
      }
      {
        ScopedStep step(&spans, "atlas.recover");
        TSP_ASSIGN_OR_RETURN(record.atlas, atlas::RecoverAtlas(heap.get()));
        record.rollback_s = step.Stop();
      }
      if (Corrupt("recovery-gc")) ClobberRootMagic(heap.get());
      {
        ScopedStep step(&spans, "pheap.gc");
        record.gc = heap->RunRecoveryGc(registry_);
        heap->FinishRecovery();
        record.gc_s = step.Stop();
      }
      {
        ScopedStep step(&spans, "pheap.close_clean");
        heap->CloseClean();
        heap.reset();
      }
      {
        ScopedStep step(&spans, "workload.attach");
        TSP_ASSIGN_OR_RETURN(session, MapSession::OpenOrCreate(config));
        record.attach_s = step.Stop();
      }
      record.total_s = total.Stop();
    }
    recoveries.push_back(record);
    return session;
  }

  /// The checks every recovery must pass besides the workload's own:
  /// no invalid pointer met by the GC, and a clean CheckHeap.
  bool VerifyHeap(MapSession* session) {
    const RecoveryRecord& record = recoveries.back();
    bool ok = Check("gc_invalid_pointers", record.gc.invalid_pointers == 0,
                    std::to_string(record.gc.invalid_pointers) +
                        " invalid pointers");
    if (Corrupt("recovery-heap")) ClobberRootMagic(session->heap());
    ScopedStep step(&spans, "pheap.check");
    const pheap::CheckReport report =
        pheap::CheckHeap(*session->heap(), registry_);
    check_s.push_back(step.Stop());
    ok &= Check("check_heap", report.ok, report.ToString());
    return ok;
  }

  /// Records the carved arena bytes of a measured heap, and per live key.
  void RecordHeapBytesPerKey(MapSession* session, std::uint64_t live_keys) {
    const auto bytes = static_cast<double>(ArenaBytes(session->heap()));
    arena_bytes.push_back(bytes);
    heap_bytes_per_key.push_back(
        live_keys == 0 ? 0 : bytes / static_cast<double>(live_keys));
  }

  /// Records throughput and Put/IncrementBy/Get/Remove quantiles of a
  /// phase, one value per window.
  void RecordPhase(const Phase& phase, bool rates) {
    if (rates) {
      for (double rate : phase.WindowRates()) throughput.push_back(rate / 1e6);
    }
    const auto add = [&](Op op, std::vector<double>* p50,
                         std::vector<double>* p99) {
      const std::uint64_t min = phase.window_s.size() > 1 ? kMinWindowSamples
                                                          : 1;
      for (double v : phase.WindowQuantilesUs(op, 0.50, min)) p50->push_back(v);
      for (double v : phase.WindowQuantilesUs(op, 0.99, min)) p99->push_back(v);
    };
    add(kPut, &put_p50, &put_p99);
    add(kIncr, &incr_p50, &incr_p99);
    add(kGet, &get_p50, &get_p99);
    add(kRemove, &remove_p50, &remove_p99);
  }

  LayerSample SampleLayers(MapSession* session) {
    LayerSample sample;
    if (!options.traced) return sample;
    sample.registry = obs::DefaultRegistry().Snapshot();
    sample.flush_lines = GlobalFlushStats().lines_flushed.load();
    sample.fences = GlobalFlushStats().fences.load();
    const obs::Recorder* recorder = session->heap()->recorder();
    sample.trace_events = recorder ? recorder->EventsRecorded() : 0;
    return sample;
  }

  /// Adds the CPU and call counts of one measured phase, and when traced
  /// its layer counts (between two samples) and call spans, to the run's
  /// totals.
  void AccumulateLayers(const LayerSample& before, const LayerSample& after,
                        const Phase& phase, int span) {
    for (const auto& [name, value] : after.registry.counters) {
      layers.prefixes.insert(name.substr(0, name.find('.')));
      const std::uint64_t base = before.registry.counter(name);
      layers.counters[name] +=
          value >= base ? static_cast<double>(value - base) : 0.0;
    }
    for (const auto& [name, value] : after.registry.gauges) {
      layers.prefixes.insert(name.substr(0, name.find('.')));
    }
    layers.limbo_peak =
        std::max(layers.limbo_peak,
                 static_cast<double>(after.registry.counter("lockfree.limbo_peak")));
    layers.flush_lines += static_cast<double>(after.flush_lines - before.flush_lines);
    layers.fences += static_cast<double>(after.fences - before.fences);
    layers.trace_events +=
        static_cast<double>(after.trace_events - before.trace_events);
    layers.calls += static_cast<double>(phase.calls());
    layers.wall_s += phase.wall_s;
    layers.worker_cpu_s += phase.worker_cpu_s();
    layers.background_cpu_s += phase.process_cpu_s - phase.worker_cpu_s();
    for (const WorkerPhase& worker : phase.workers) {
      layers.worker_wall_s += phase.wall_s;
      if (phase.calibration.ticks_per_ns > 0) {
        layers.busy_s += static_cast<double>(worker.busy_ticks) /
                         phase.calibration.ticks_per_ns / 1e9;
      }
    }
    spans.AddCallSpans(phase, span);
  }

  /// Samples the Atlas pruner backlog; called at window boundaries.
  void SamplePending() {
    if (!options.traced) return;
    const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
    const auto it = snapshot.gauges.find("atlas.pending_unstable");
    layers.pending_unstable.push_back(
        it == snapshot.gauges.end() ? 0.0 : static_cast<double>(it->second));
  }

  void Finish();

 private:
  void EndToEndMetrics();
  void LayerMetrics();
  void Report(const std::string& name, double value, const char* unit) {
    result_->metrics[name] = Metric{value, unit};
  }

  RunResult* const result_;
  bool fail_all_ = false;
  const std::shared_ptr<MemfdBackend> backend_;
  pheap::TypeRegistry registry_;
};

double Per(double count, double ops) { return ops > 0 ? count / ops : 0; }

void Bench::Finish() {
  result_->registry_prefixes.assign(layers.prefixes.begin(),
                                    layers.prefixes.end());
  result_->worker_cpu_util = Per(layers.worker_cpu_s, layers.worker_wall_s);
  result_->background_cpu_util = Per(layers.background_cpu_s, layers.wall_s);
  if (!options.traced) {
    EndToEndMetrics();
  } else {
    LayerMetrics();
  }
  if (!spans.Write(options.trace_out)) {
    result_->failures.push_back("trace: cannot write " + options.trace_out);
  }
  // A failed check always fails at least the calls it covered; when it
  // names none of them, it covers the whole run.
  if (fail_all_ || (failed() && result_->failed == 0)) {
    result_->failed = result_->attempted;
  }
  result_->failed = std::min(result_->failed, result_->attempted);
}

void Bench::EndToEndMetrics() {
  std::vector<double> recovery;
  for (const RecoveryRecord& r : recoveries) recovery.push_back(r.total_s);
  Report("throughput_mops", Median(throughput), "Mops/s");
  Report("put_p50_us", Median(put_p50), "us");
  Report("put_p99_us", Median(put_p99), "us");
  Report("incr_p50_us", Median(incr_p50), "us");
  Report("incr_p99_us", Median(incr_p99), "us");
  Report("get_p50_us", Median(get_p50), "us");
  Report("get_p99_us", Median(get_p99), "us");
  Report("remove_p50_us", Median(remove_p50), "us");
  Report("remove_p99_us", Median(remove_p99), "us");
  Report("recovery_s", Median(recovery), "s");
  Report("setup_s", Median(setup_s), "s");
  Report("heap_bytes_per_key", Median(heap_bytes_per_key), "B/key");
}

void Bench::LayerMetrics() {
  const LayerTotals& l = layers;
  const auto c = [&](const char* name) {
    const auto it = l.counters.find(name);
    return it == l.counters.end() ? 0.0 : it->second;
  };
  const auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const RecoveryRecord& r : recoveries) values.push_back(field(r));
    return Median(values);
  };
  const double ops = l.calls;

  Report("workload.create_s", Median(create_s), "s");
  Report("workload.prefill_s", Median(prefill_s), "s");
  Report("workload.warmup_s", Median(warmup_s), "s");
  Report("workload.worker_cpu_util", result_->worker_cpu_util, "ratio");
  Report("workload.background_cpu_util", result_->background_cpu_util, "ratio");
  Report("workload.attach_s",
      median_of([](const RecoveryRecord& r) { return r.attach_s; }), "s");
  Report("workload.invariants_s", Median(invariants_s), "s");
  Report("maps.op_busy_frac", Per(l.busy_s, l.worker_wall_s), "ratio");

  const double ocses = c("atlas.ocses_committed");
  const double flit = c("atlas.flit_repeat_hits") + c("atlas.flit_rearms");
  Report("atlas.ocses_per_op", Per(ocses, ops), "1/op");
  Report("atlas.log_entries_per_op", Per(c("atlas.log_entries_appended"), ops),
      "1/op");
  Report("atlas.undo_records_per_op", Per(c("atlas.undo_records"), ops), "1/op");
  Report("atlas.flit_hit_ratio", Per(c("atlas.flit_repeat_hits"), flit), "ratio");
  Report("atlas.flit_rearms_per_op", Per(c("atlas.flit_rearms"), ops), "1/op");
  Report("atlas.elided_fresh_per_op", Per(c("atlas.elided_fresh"), ops), "1/op");
  Report("atlas.fast_commit_ratio", Per(c("atlas.fast_path_commits"), ocses),
      "ratio");
  Report("atlas.seq_leases_per_op", Per(c("atlas.seq_blocks_leased"), ops),
      "1/op");
  Report("atlas.seq_resyncs_per_op", Per(c("atlas.seq_resyncs"), ops), "1/op");
  Report("atlas.pending_unstable", Median(l.pending_unstable), "count");
  Report("atlas.rollback_s",
      median_of([](const RecoveryRecord& r) { return r.rollback_s; }), "s");
  Report("atlas.entries_scanned",
      median_of([](const RecoveryRecord& r) {
        return static_cast<double>(r.atlas.entries_scanned);
      }),
      "count");
  Report("atlas.stores_undone",
      median_of([](const RecoveryRecord& r) {
        return static_cast<double>(r.atlas.stores_undone);
      }),
      "count");
  Report("atlas.ocses_rolled_back",
      median_of([](const RecoveryRecord& r) {
        return static_cast<double>(r.atlas.ocses_incomplete +
                                   r.atlas.ocses_cascaded);
      }),
      "count");

  Report("obs.trace_events_per_op", Per(l.trace_events, ops), "1/op");
  Report("flush.lines_per_op", Per(l.flush_lines, ops), "1/op");
  Report("flush.fences_per_op", Per(l.fences, ops), "1/op");

  const double allocs = c("alloc.magazine_allocs") + c("alloc.shared_allocs");
  const double frees = c("alloc.magazine_frees") + c("alloc.shared_frees") +
                       c("alloc.remote_frees");
  Report("alloc.allocs_per_op", Per(allocs, ops), "1/op");
  Report("alloc.frees_per_op", Per(frees, ops), "1/op");
  Report("alloc.magazine_hit_ratio",
      Per(c("alloc.magazine_allocs") + c("alloc.magazine_frees"),
          allocs + frees),
      "ratio");
  Report("alloc.refills_per_op", Per(c("alloc.refill_batches"), ops), "1/op");
  Report("alloc.remote_frees_per_op", Per(c("alloc.remote_frees"), ops), "1/op");
  Report("alloc.batch_pop_retries", c("alloc.batch_pop_retries"), "count");

  Report("lockfree.retired_per_op", Per(c("lockfree.nodes_retired"), ops),
      "1/op");
  Report("lockfree.reclaim_ratio",
      Per(c("lockfree.nodes_freed"), c("lockfree.nodes_retired")), "ratio");
  Report("lockfree.limbo_peak", l.limbo_peak, "count");
  Report("lockfree.advance_success_ratio",
      Per(c("lockfree.epoch_advances"), c("lockfree.advance_attempts")),
      "ratio");

  const double gc_s = median_of([](const RecoveryRecord& r) { return r.gc_s; });
  const double live = median_of([](const RecoveryRecord& r) {
    return static_cast<double>(r.gc.live_objects);
  });
  Report("pheap.open_s",
      median_of([](const RecoveryRecord& r) { return r.open_s; }), "s");
  Report("pheap.gc_s", gc_s, "s");
  Report("pheap.gc_objects_per_s", Per(live, gc_s), "1/s");
  Report("pheap.gc_live_objects", live, "count");
  Report("pheap.gc_free_blocks",
      median_of([](const RecoveryRecord& r) {
        return static_cast<double>(r.gc.free_blocks);
      }),
      "count");
  Report("pheap.gc_invalid_pointers",
      median_of([](const RecoveryRecord& r) {
        return static_cast<double>(r.gc.invalid_pointers);
      }),
      "count");
  Report("pheap.arena_bytes", Median(arena_bytes), "B");
  Report("pheap.check_s", Median(check_s), "s");

  Report("traced.throughput_mops", Median(throughput), "Mops/s");
  Report("traced.recovery_s",
      median_of([](const RecoveryRecord& r) { return r.total_s; }), "s");
}

// ---------------------------------------------------------------------
// §5.1 loop shared by table1-logonly and crash-recovery

/// One worker's §5.1 state: its counter-key index and iteration number
/// carry across phases, so c1,t and c2,t keep counting its iterations.
/// Written on every iteration, so each sits on its own cache line.
struct alignas(64) LoopWorker {
  int tid = 0;
  std::uint64_t iterations = 0;
  Random rng{1};
};

std::vector<LoopWorker> LoopWorkers(int count, std::uint64_t seed) {
  std::vector<LoopWorker> workers(count);
  for (int w = 0; w < count; ++w) {
    workers[w].tid = w;
    workers[w].rng.Seed(StreamSeed(seed, static_cast<std::uint64_t>(w)));
  }
  return workers;
}

/// Runs §5.1 iterations until `limit` are done or the phase stops.
void Section51(maps::Map* map, std::uint64_t high, LoopWorker* worker,
               CallMeter* meter, std::uint64_t limit) {
  for (std::uint64_t done = 0; done < limit && !meter->stopped(); ++done) {
    const std::uint64_t i = ++worker->iterations;
    const std::uint64_t key = HighKey(worker->rng.Uniform(high));
    meter->Call(kPut, [&] { map->Put(C1Key(worker->tid), i); });
    meter->Call(kIncr, [&] { return map->IncrementBy(key, 1); });
    meter->Call(kPut, [&] { map->Put(C2Key(worker->tid), i); });
  }
}

/// Reads one slice of H back through Map::Get, the keys of index
/// `first`, `first + stride`, ...: the get latency of the Atlas
/// workloads. Checks the values against a quiesced traversal of the same
/// keys.
void ReadBack(Bench* bench, maps::Map* map, std::uint64_t high,
              std::uint64_t first, std::uint64_t stride) {
  std::uint64_t expected_sum = 0;
  std::uint64_t expected_count = 0;
  map->ForEach([&](std::uint64_t key, std::uint64_t value) {
    const std::uint64_t index = key - workload::kHighKeyBase;
    if (key >= workload::kHighKeyBase && index % stride == first) {
      expected_sum += value;
      ++expected_count;
    }
  });
  const auto workers = static_cast<std::uint64_t>(bench->pool->size());
  std::vector<std::uint64_t> sums(workers, 0);
  std::vector<std::uint64_t> counts(workers, 0);
  Phase reads;
  RunFixedPhase(bench->pool, &reads, [&](int w) {
    CallMeter meter(&reads.workers[w], &reads.clock, true, false);
    std::uint64_t sum = 0;
    std::uint64_t count = 0;
    for (std::uint64_t i = first + w * stride; i < high;
         i += workers * stride) {
      const std::optional<std::uint64_t> value =
          meter.Call(kGet, [&] { return map->Get(HighKey(i)); });
      if (value.has_value()) {
        sum += *value;
        ++count;
      }
    }
    sums[w] = sum;
    counts[w] = count;
  });
  bench->RecordPhase(reads, false);
  std::uint64_t sum = 0;
  std::uint64_t count = 0;
  for (std::uint64_t w = 0; w < workers; ++w) {
    sum += sums[w];
    count += counts[w];
  }
  bench->Attempted(reads.calls());
  if (!bench->Check("read_back", sum == expected_sum && count == expected_count,
                    "Get sum " + std::to_string(sum) + " over " +
                        std::to_string(count) + " keys, traversal saw " +
                        std::to_string(expected_sum) + " over " +
                        std::to_string(expected_count))) {
    bench->Failed(reads.calls());
  }
}

/// Removes every key of the quiesced map through Map::Remove: the remove
/// latency of the Atlas workloads. Every Remove must find its key, and
/// the map must end empty.
void Drain(Bench* bench, maps::Map* map) {
  const int workers = bench->pool->size();
  // Worker w removes the keys equal to w modulo the worker count, in key
  // order. Keys hash to scattered buckets, so the workers seldom meet on
  // a lock stripe, as in the timed loop; splitting the traversal order
  // instead would march both workers through the same stripes.
  std::vector<std::vector<std::uint64_t>> keys(workers);
  map->ForEach([&](std::uint64_t key, std::uint64_t) {
    keys[key % static_cast<std::uint64_t>(workers)].push_back(key);
  });
  for (std::vector<std::uint64_t>& mine : keys) {
    std::sort(mine.begin(), mine.end());
  }
  std::vector<std::uint64_t> missing(workers, 0);
  Phase removes;
  RunFixedPhase(bench->pool, &removes, [&](int w) {
    CallMeter meter(&removes.workers[w], &removes.clock, true, false);
    std::uint64_t not_found = 0;
    for (const std::uint64_t key : keys[w]) {
      if (!meter.Call(kRemove, [&] { return map->Remove(key); })) ++not_found;
    }
    missing[w] = not_found;
  });
  bench->RecordPhase(removes, false);
  std::uint64_t not_found = 0;
  for (const std::uint64_t m : missing) not_found += m;
  std::uint64_t left = 0;
  map->ForEach([&](std::uint64_t, std::uint64_t) { ++left; });
  bench->Attempted(removes.calls());
  bench->Failed(not_found);
  bench->Check("drain", not_found == 0 && left == 0,
               std::to_string(not_found) + " removes found no key, " +
                   std::to_string(left) + " keys left");
}

// ---------------------------------------------------------------------
// table1-logonly

/// The exact quiesced sums: c1,t = c2,t = the thread's iterations, and
/// Σ_H = the total number of increments.
bool CheckTable1Sums(Bench* bench, const maps::Map& map,
                     const std::vector<LoopWorker>& workers,
                     std::uint64_t* live_keys) {
  ScopedStep step(&bench->spans, "workload.invariants");
  std::vector<std::uint64_t> c1(workers.size(), 0), c2(workers.size(), 0);
  std::uint64_t sum_high = 0;
  *live_keys = 0;
  map.ForEach([&](std::uint64_t key, std::uint64_t value) {
    ++*live_keys;
    if (key >= workload::kHighKeyBase) {
      sum_high += value;
    } else if (key < 2 * workers.size()) {
      (key % 2 == 0 ? c1 : c2)[key / 2] = value;
    }
  });
  std::uint64_t increments = 0;
  std::string detail;
  for (std::size_t t = 0; t < workers.size(); ++t) {
    increments += workers[t].iterations;
    if (c1[t] != workers[t].iterations || c2[t] != workers[t].iterations) {
      detail += "thread " + std::to_string(t) + ": c1=" + std::to_string(c1[t]) +
                " c2=" + std::to_string(c2[t]) + " iterations=" +
                std::to_string(workers[t].iterations) + "; ";
    }
  }
  if (sum_high != increments) {
    detail += "sum_H=" + std::to_string(sum_high) +
              " increments=" + std::to_string(increments);
  }
  bench->invariants_s.push_back(step.Stop());
  return bench->Check("table1_sums", detail.empty(), detail);
}

/// One table1-logonly heap: set-up (create, warm-up), `windows` timed
/// windows, the sums check, unclean restarts with read-backs, and the
/// drain.
Status RunTable1Heap(Bench* bench, int setup, int windows) {
  const Sizes& sizes = bench->sizes;
  const std::uint64_t high = sizes.table1_high;
  const MapSession::Config config = bench->Config(
      MapVariant::kMutexLogOnly, "setup" + std::to_string(setup), high);
  std::unique_ptr<MapSession> session;
  std::vector<LoopWorker> workers =
      LoopWorkers(bench->pool->size(), bench->options.seed);
  {
    ScopedStep step(&bench->spans, "setup");
    TSP_ASSIGN_OR_RETURN(session, bench->Create(config));
    {
      // Table 1 starts from an empty map: the step is timed but empty.
      ScopedStep fill(&bench->spans, "workload.prefill");
      bench->prefill_s.push_back(fill.Stop());
    }
    maps::Map* map = session->map();
    {
      ScopedStep warm(&bench->spans, "workload.warmup");
      Phase phase;
      RunFixedPhase(bench->pool, &phase, [&](int w) {
        CallMeter meter(&phase.workers[w], &phase.clock, false, false);
        Section51(map, high, &workers[w], &meter, sizes.warmup_iterations);
      });
      bench->warmup_s.push_back(warm.Stop());
    }
    bench->setup_s.push_back(step.Stop());
  }
  maps::Map* map = session->map();

  {
    ScopedStep step(&bench->spans, "timed");
    Phase phase;
    const LayerSample before = bench->SampleLayers(session.get());
    RunTimedPhase(
        bench->pool, &phase, windows, bench->options.seconds / sizes.windows,
        [&](int w) {
          CallMeter meter(&phase.workers[w], &phase.clock,
                          bench->options.traced, bench->options.traced);
          Section51(map, high, &workers[w], &meter, UINT64_MAX);
        },
        [&] { bench->SamplePending(); });
    bench->AccumulateLayers(before, bench->SampleLayers(session.get()), phase,
                            step.id());
    bench->RecordPhase(phase, true);
  }
  std::uint64_t loop_calls = 0;
  for (const LoopWorker& worker : workers) loop_calls += 3 * worker.iterations;
  bench->Attempted(loop_calls);

  if (bench->Corrupt("table1-sums")) map->IncrementBy(HighKey(0), 1);
  std::uint64_t live_keys = 0;
  if (!CheckTable1Sums(bench, *map, workers, &live_keys)) bench->FailAll();
  bench->RecordHeapBytesPerKey(session.get(), live_keys);

  for (int r = 0; r < sizes.restarts && !bench->failed(); ++r) {
    bench->Close(&session, false);
    TSP_ASSIGN_OR_RETURN(session, bench->Recover(config));
    bench->VerifyHeap(session.get());
    CheckTable1Sums(bench, *session->map(), workers, &live_keys);
    ReadBack(bench, session->map(), high, 0, 1);
  }
  if (!bench->failed()) Drain(bench, session->map());
  bench->Close(&session, true);
  bench->Discard(config);
  return Status::OK();
}

/// Runs `heap` once per set-up, each heap serving an equal share of the
/// timed windows, so one run samples the memory placement of several
/// heaps, not one.
Status RunEachHeap(Bench* bench, Status (*heap)(Bench*, int, int)) {
  const Sizes& sizes = bench->sizes;
  const int windows = std::max(1, sizes.windows / sizes.setups);
  for (int setup = 0; setup < sizes.setups && !bench->failed(); ++setup) {
    TSP_RETURN_IF_ERROR(heap(bench, setup, windows));
  }
  return Status::OK();
}

Status RunTable1(Bench* bench) { return RunEachHeap(bench, RunTable1Heap); }

// ---------------------------------------------------------------------
// lockfree-kv

constexpr std::uint64_t kAbsent = ~0ULL;

struct KvCall {
  Op op;
  std::uint64_t slot;
  std::uint64_t value;
};

/// The next call of a worker's seeded stream, on a slot of its own key
/// partition.
KvCall NextKvCall(Random* rng, std::uint64_t partition) {
  const auto pct = static_cast<int>(rng->Uniform(100));
  KvCall call{kGet, rng->Uniform(partition), 0};
  if (pct >= kGetPct + kPutPct + kIncrPct) {
    call.op = kRemove;
  } else if (pct >= kGetPct + kPutPct) {
    call.op = kIncr;
  } else if (pct >= kGetPct) {
    call.op = kPut;
    call.value = rng->Next() >> 16;
  }
  return call;
}

/// Worker w owns the keys HighKey(slot * workers + w).
std::uint64_t KvKey(int workers, int w, std::uint64_t slot) {
  return HighKey(slot * static_cast<std::uint64_t>(workers) +
                 static_cast<std::uint64_t>(w));
}

/// A worker's position in its call stream and the checksum of every
/// value the map returned to it (own cache line: written on every call).
struct alignas(64) KvWorker {
  Random rng{1};
  std::uint64_t calls = 0;
  std::uint64_t checksum = 0;
};

/// Single-threaded model of one worker's key partition.
struct KvModel {
  std::vector<std::uint64_t> value;
  std::vector<std::uint8_t> present;
  std::uint64_t live = 0;
};

Random KvPrefillRng(std::uint64_t seed, int w) {
  return Random(StreamSeed(seed, 1000 + static_cast<std::uint64_t>(w)));
}
Random KvCallRng(std::uint64_t seed, int w) {
  return Random(StreamSeed(seed, 2000 + static_cast<std::uint64_t>(w)));
}
Random KvGrowthRng(std::uint64_t seed, int w) {
  return Random(StreamSeed(seed, 3000 + static_cast<std::uint64_t>(w)));
}

/// Issues `limit` calls of the worker's stream (or until the phase stops).
void KvCalls(maps::Map* map, int workers, int w, std::uint64_t partition,
             KvWorker* worker, CallMeter* meter, std::uint64_t limit) {
  for (std::uint64_t done = 0; done < limit && !meter->stopped(); ++done) {
    const KvCall call = NextKvCall(&worker->rng, partition);
    const std::uint64_t key = KvKey(workers, w, call.slot);
    std::uint64_t returned = 0;
    switch (call.op) {
      case kGet: {
        const std::optional<std::uint64_t> value =
            meter->Call(kGet, [&] { return map->Get(key); });
        returned = value.value_or(kAbsent);
        break;
      }
      case kPut:
        meter->Call(kPut, [&] { map->Put(key, call.value); });
        returned = call.value;
        break;
      case kIncr:
        returned = meter->Call(kIncr, [&] { return map->IncrementBy(key, 1); });
        break;
      case kRemove:
        returned = meter->Call(kRemove, [&] { return map->Remove(key); });
        break;
      case kNumOps:
        break;
    }
    worker->checksum = Mix(worker->checksum, returned);
    ++worker->calls;
  }
}

/// Replays worker w's prefill and its first `calls` calls against the
/// model; returns the checksum the map should have produced.
std::uint64_t ReplayKv(std::uint64_t seed, int w, std::uint64_t partition,
                       std::uint64_t calls, KvModel* model) {
  model->value.assign(partition, 0);
  model->present.assign(partition, 0);
  model->live = 0;
  Random prefill = KvPrefillRng(seed, w);
  for (std::uint64_t slot = 0; slot < partition; ++slot) {
    if (prefill.Bernoulli(kKvLiveFraction)) {
      model->present[slot] = 1;
      ++model->live;
    }
  }
  Random rng = KvCallRng(seed, w);
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < calls; ++i) {
    const KvCall call = NextKvCall(&rng, partition);
    std::uint64_t& value = model->value[call.slot];
    std::uint8_t& present = model->present[call.slot];
    std::uint64_t returned = 0;
    switch (call.op) {
      case kGet:
        returned = present ? value : kAbsent;
        break;
      case kPut:
        model->live += present ? 0 : 1;
        present = 1;
        value = call.value;
        returned = call.value;
        break;
      case kIncr:
        model->live += present ? 0 : 1;
        value = present ? value + 1 : 1;
        present = 1;
        returned = value;
        break;
      case kRemove:
        returned = present;
        model->live -= present;
        present = 0;
        break;
      case kNumOps:
        break;
    }
    checksum = Mix(checksum, returned);
  }
  return checksum;
}

/// Compares the quiesced map with the models, key by key.
bool CheckKvContents(Bench* bench, const maps::Map& map,
                     const std::vector<KvModel>& models,
                     std::uint64_t* live_keys) {
  ScopedStep step(&bench->spans, "workload.invariants");
  const int workers = static_cast<int>(models.size());
  std::uint64_t seen = 0;
  std::uint64_t wrong = 0;
  map.ForEach([&](std::uint64_t key, std::uint64_t value) {
    ++seen;
    const std::uint64_t index = key - workload::kHighKeyBase;
    const KvModel& model = models[index % workers];
    const std::uint64_t slot = index / workers;
    if (key < workload::kHighKeyBase || slot >= model.present.size() ||
        !model.present[slot] || model.value[slot] != value) {
      ++wrong;
    }
  });
  std::uint64_t expected = 0;
  for (const KvModel& model : models) expected += model.live;
  *live_keys = seen;
  bench->invariants_s.push_back(step.Stop());
  return bench->Check("kv_contents", wrong == 0 && seen == expected,
                      std::to_string(wrong) + " wrong entries, " +
                          std::to_string(seen) + " keys, model has " +
                          std::to_string(expected));
}

/// Grows the quiesced map from the hot partitions to the full key range:
/// worker w puts value 0 on each slot of [hot, full) of its partition
/// with probability kKvLiveFraction. The models grow to match; returns
/// the number of Put calls.
std::uint64_t GrowKv(Bench* bench, maps::Map* map, std::uint64_t hot,
                     std::uint64_t full, std::vector<KvModel>* models) {
  ScopedStep step(&bench->spans, "workload.grow");
  const int workers = bench->pool->size();
  const std::uint64_t seed = bench->options.seed;
  std::vector<std::uint64_t> puts(workers, 0);
  bench->pool->Run([&](int w) {
    KvModel& model = (*models)[w];
    model.value.resize(full, 0);
    model.present.resize(full, 0);
    Random rng = KvGrowthRng(seed, w);
    for (std::uint64_t slot = hot; slot < full; ++slot) {
      if (!rng.Bernoulli(kKvLiveFraction)) continue;
      map->Put(KvKey(workers, w, slot), 0);
      model.present[slot] = 1;
      ++model.live;
      ++puts[w];
    }
  });
  std::uint64_t total = 0;
  for (const std::uint64_t n : puts) total += n;
  return total;
}

/// One lockfree-kv heap: set-up (create, prefill, warm-up), `windows`
/// timed windows and their output checks on the hot keys, then growth to
/// the full key range, its footprint, and unclean restarts.
Status RunKvHeap(Bench* bench, int setup, int windows) {
  const Sizes& sizes = bench->sizes;
  const int workers = bench->pool->size();
  const std::uint64_t partition = sizes.kv_hot_keys / workers;
  const std::uint64_t seed = bench->options.seed;
  const MapSession::Config config =
      bench->Config(MapVariant::kLockFreeHashMap,
                    "setup" + std::to_string(setup), sizes.kv_hot_keys);
  std::unique_ptr<MapSession> session;
  std::vector<KvWorker> streams(workers);
  {
    ScopedStep step(&bench->spans, "setup");
    TSP_ASSIGN_OR_RETURN(session, bench->Create(config));
    maps::Map* map = session->map();
    {
      ScopedStep fill(&bench->spans, "workload.prefill");
      bench->pool->Run([&](int w) {
        Random rng = KvPrefillRng(seed, w);
        for (std::uint64_t slot = 0; slot < partition; ++slot) {
          if (rng.Bernoulli(kKvLiveFraction)) map->Put(KvKey(workers, w, slot), 0);
        }
      });
      bench->prefill_s.push_back(fill.Stop());
    }
    for (int w = 0; w < workers; ++w) streams[w].rng = KvCallRng(seed, w);
    {
      ScopedStep warm(&bench->spans, "workload.warmup");
      Phase phase;
      RunFixedPhase(bench->pool, &phase, [&](int w) {
        CallMeter meter(&phase.workers[w], &phase.clock, false, false);
        KvCalls(map, workers, w, partition, &streams[w], &meter,
                sizes.kv_warmup_ops);
      });
      bench->warmup_s.push_back(warm.Stop());
    }
    bench->setup_s.push_back(step.Stop());
  }
  maps::Map* map = session->map();

  {
    ScopedStep step(&bench->spans, "timed");
    Phase phase;
    const LayerSample before = bench->SampleLayers(session.get());
    RunTimedPhase(
        bench->pool, &phase, windows, bench->options.seconds / sizes.windows,
        [&](int w) {
          CallMeter meter(&phase.workers[w], &phase.clock,
                          bench->options.traced, bench->options.traced);
          KvCalls(map, workers, w, partition, &streams[w], &meter, UINT64_MAX);
        },
        [&] { bench->SamplePending(); });
    bench->AccumulateLayers(before, bench->SampleLayers(session.get()), phase,
                            step.id());
    bench->RecordPhase(phase, true);
  }

  std::vector<KvModel> models(workers);
  std::vector<std::uint64_t> expected(workers, 0);
  {
    ScopedStep step(&bench->spans, "workload.replay");
    bench->pool->Run([&](int w) {
      expected[w] = ReplayKv(seed, w, partition, streams[w].calls, &models[w]);
    });
  }
  if (bench->Corrupt("kv-checksum")) streams[0].checksum ^= 1;
  for (int w = 0; w < workers; ++w) {
    bench->Attempted(streams[w].calls);
    if (!bench->Check("kv_checksum", streams[w].checksum == expected[w],
                      "worker " + std::to_string(w) + " returned values differ "
                      "from the model replay")) {
      bench->Failed(streams[w].calls);
    }
  }
  if (bench->Corrupt("kv-contents")) {
    map->Put(KvKey(workers, 0, 0), models[0].value[0] + 1);
  }
  std::uint64_t live_keys = 0;
  if (!CheckKvContents(bench, *map, models, &live_keys)) bench->FailAll();
  // Blocks the timed phase left carved but free are reused by the growth,
  // so the footprint counts only what reclamation never returned.
  if (!bench->failed()) {
    bench->Attempted(
        GrowKv(bench, map, partition, sizes.kv_keys / workers, &models));
    if (!CheckKvContents(bench, *map, models, &live_keys)) bench->FailAll();
  }
  bench->RecordHeapBytesPerKey(session.get(), live_keys);

  for (int r = 0; r < sizes.restarts && !bench->failed(); ++r) {
    bench->Close(&session, false);
    TSP_ASSIGN_OR_RETURN(session, bench->Recover(config));
    bench->VerifyHeap(session.get());
    CheckKvContents(bench, *session->map(), models, &live_keys);
  }
  bench->Close(&session, true);
  bench->Discard(config);
  return Status::OK();
}

Status RunLockFreeKv(Bench* bench) { return RunEachHeap(bench, RunKvHeap); }

// ---------------------------------------------------------------------
// crash-recovery

/// The crash victim, in a forked child: reopens the cleanly closed heap,
/// runs the §5.1 loop on fresh counter-key indexes with one thread per
/// worker CPU, and SIGKILLs itself when worker 0 is inside iteration
/// `kill_after`, between its c1 Put and its increment.
[[noreturn]] void CrashVictim(const MapSession::Config& config,
                              const std::vector<int>& cpus, int first_tid,
                              std::uint64_t high, std::uint64_t kill_after,
                              std::uint64_t seed) {
  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok() || (*session)->recovered()) _exit(3);
  maps::Map* map = (*session)->map();
  std::vector<std::thread> threads;
  for (int w = 0; w < static_cast<int>(cpus.size()); ++w) {
    threads.emplace_back([&, w] {
      SetCurrentThreadCpus({cpus[w]});
      const int tid = first_tid + w;
      Random rng(StreamSeed(seed, static_cast<std::uint64_t>(tid)));
      for (std::uint64_t i = 1;; ++i) {
        map->Put(C1Key(tid), i);
        if (w == 0 && i == kill_after) kill(getpid(), SIGKILL);
        map->IncrementBy(HighKey(rng.Uniform(high)), 1);
        map->Put(C2Key(tid), i);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  _exit(4);
}

/// Waits for the victim to die of its own SIGKILL; kills and reaps one
/// that is still alive after kChildTimeoutS.
bool AwaitVictim(pid_t pid, std::string* detail) {
  const double deadline = SteadySeconds() + kChildTimeoutS;
  int status = 0;
  for (;;) {
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid) break;
    if (got < 0 && errno != EINTR) {
      *detail = "waitpid failed";
      return false;
    }
    if (SteadySeconds() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      *detail = "crash victim still alive after the timeout; killed it";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) return true;
  *detail = "crash victim ended without SIGKILL, status " +
            std::to_string(status);
  return false;
}

Status RunCrashRecovery(Bench* bench) {
  const Sizes& sizes = bench->sizes;
  const std::uint64_t high = sizes.crash_high;
  const int workers = bench->pool->size();
  std::unique_ptr<MapSession> session;
  MapSession::Config config;
  std::vector<LoopWorker> loop;
  for (int setup = 0; setup < sizes.setups; ++setup) {
    if (session != nullptr) {
      bench->Close(&session, true);
      bench->Discard(config);
    }
    config = bench->Config(MapVariant::kMutexLogOnly,
                           "setup" + std::to_string(setup), high);
    ScopedStep step(&bench->spans, "setup");
    TSP_ASSIGN_OR_RETURN(session, bench->Create(config));
    maps::Map* map = session->map();
    {
      ScopedStep fill(&bench->spans, "workload.prefill");
      bench->pool->Run([&](int w) {
        for (std::uint64_t i = w; i < high; i += workers) map->Put(HighKey(i), 0);
      });
      bench->prefill_s.push_back(fill.Stop());
    }
    loop = LoopWorkers(workers, bench->options.seed);
    {
      ScopedStep warm(&bench->spans, "workload.warmup");
      Phase phase;
      RunFixedPhase(bench->pool, &phase, [&](int w) {
        CallMeter meter(&phase.workers[w], &phase.clock, false, false);
        Section51(map, high, &loop[w], &meter, sizes.warmup_iterations);
      });
      bench->warmup_s.push_back(warm.Stop());
    }
    bench->setup_s.push_back(step.Stop());
  }

  int threads_used = workers;
  std::uint64_t accounted_c1 = 0;
  for (const LoopWorker& worker : loop) accounted_c1 += worker.iterations;
  bench->Attempted(3 * accounted_c1);
  const double start = SteadySeconds();
  for (int cycle = 0;
       cycle < sizes.max_cycles &&
       (cycle < sizes.min_cycles ||
        SteadySeconds() - start < bench->options.seconds);
       ++cycle) {
    ScopedStep step(&bench->spans, "cycle");
    bench->Close(&session, true);
    std::fflush(stdout);
    std::fflush(stderr);
    const int first_tid = threads_used;
    const pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      CrashVictim(config, bench->pool->cpus(), first_tid, high,
                  sizes.kill_after, bench->options.seed);
    }
    threads_used += workers;
    std::string detail;
    if (!bench->Check("victim_killed", AwaitVictim(pid, &detail), detail)) {
      break;
    }
    TSP_ASSIGN_OR_RETURN(session, bench->Recover(config));
    maps::Map* map = session->map();

    if (bench->Corrupt("recovery-invariants")) {
      map->IncrementBy(HighKey(0), 1ULL << 40);
    }
    workload::InvariantReport report;
    {
      ScopedStep check(&bench->spans, "workload.invariants");
      report = workload::CheckMapInvariants(*map, threads_used);
      bench->invariants_s.push_back(check.Stop());
    }
    bool ok = bench->Check("eq1_eq2", report.ok, report.ToString());
    ok &= bench->VerifyHeap(session.get());
    const std::uint64_t victim_calls =
        report.sum_c1 > accounted_c1 ? 3 * (report.sum_c1 - accounted_c1) : 1;
    bench->Attempted(victim_calls);
    if (!ok) {
      bench->Failed(victim_calls);
      break;
    }
    accounted_c1 = report.sum_c1;

    // Each worker rewrites its own c1,t with the value it holds, which
    // binds it to the new session (Atlas slot, recorder ring) before the
    // timed batch; claiming a ring resets the dead session's events, so
    // binding later would also skew the traced per-op event count.
    bench->pool->Run([&](int w) {
      map->Put(C1Key(loop[w].tid), loop[w].iterations);
    });
    bench->Attempted(static_cast<std::uint64_t>(workers));

    ScopedStep batch(&bench->spans, "batch");
    Phase phase;
    const LayerSample before = bench->SampleLayers(session.get());
    const std::uint64_t total =
        sizes.batch_iterations * static_cast<std::uint64_t>(workers);
    std::atomic<std::uint64_t> next{0};
    RunFixedPhase(bench->pool, &phase, [&](int w) {
      CallMeter meter(&phase.workers[w], &phase.clock, bench->options.traced,
                      bench->options.traced);
      // The workers take the batch in chunks, so neither idles while the
      // other finishes a fixed share.
      for (std::uint64_t begin = next.fetch_add(kBatchChunk); begin < total;
           begin = next.fetch_add(kBatchChunk)) {
        Section51(map, high, &loop[w], &meter,
                  std::min(kBatchChunk, total - begin));
      }
    });
    bench->SamplePending();
    bench->AccumulateLayers(before, bench->SampleLayers(session.get()), phase,
                            batch.id());
    bench->RecordPhase(phase, true);
    bench->Attempted(phase.calls());
    accounted_c1 += total;
    ReadBack(bench, map, high, cycle % kReadBackSlices, kReadBackSlices);
  }

  if (session != nullptr && !bench->failed()) {
    std::uint64_t live_keys = 0;
    session->map()->ForEach([&](std::uint64_t, std::uint64_t) { ++live_keys; });
    bench->RecordHeapBytesPerKey(session.get(), live_keys);
    Drain(bench, session->map());
  }
  bench->Close(&session, true);
  bench->Discard(config);
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "table1-logonly", "lockfree-kv", "crash-recovery"};
  return names;
}

const std::vector<std::string>& CorruptionNames() {
  static const std::vector<std::string> names = {
      "table1-sums",         "kv-checksum",   "kv-contents",
      "recovery-invariants", "recovery-heap", "recovery-gc"};
  return names;
}

Status RunWorkload(const RunOptions& options, WorkerPool* pool,
                   RunResult* result) {
  Bench bench(options, pool, result);
  Status status = Status::InvalidArgument("unknown workload " + options.workload);
  if (options.workload == "table1-logonly") status = RunTable1(&bench);
  if (options.workload == "lockfree-kv") status = RunLockFreeKv(&bench);
  if (options.workload == "crash-recovery") status = RunCrashRecovery(&bench);
  if (!status.ok()) return status;
  bench.Finish();
  return Status::OK();
}

}  // namespace tsp::perfbench
