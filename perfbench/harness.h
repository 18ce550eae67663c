// Copyright 2026 The TSP Authors.
// Measurement harness of the repository benchmark (perfbench): memfd
// heap storage, CPU placement, a pinned closed-loop worker pool,
// per-call latency histograms bucketed by time window, and the span log
// of the traced run. Nothing here knows about a particular workload.

#ifndef TSP_PERFBENCH_HARNESS_H_
#define TSP_PERFBENCH_HARNESS_H_

#include <x86intrin.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "pheap/backend.h"

namespace tsp::perfbench {

// ---------------------------------------------------------------------
// Storage

/// Region backend over memfd_create(2) files: anonymous shared memory
/// with no path in any filesystem. A forked child inherits the
/// descriptors, so a heap it leaves behind when SIGKILLed stays readable
/// by the parent, and the kernel frees every store when the last
/// descriptor closes, so an aborted run can leave nothing behind.
class MemfdBackend final : public pheap::RegionBackend {
 public:
  MemfdBackend() = default;
  ~MemfdBackend() override;
  MemfdBackend(const MemfdBackend&) = delete;
  MemfdBackend& operator=(const MemfdBackend&) = delete;

  const char* name() const override { return "memfd"; }
  StatusOr<void*> CreateAndMap(const std::string& path, std::size_t size,
                               std::uintptr_t addr) override;
  Status PeekHeader(const std::string& path, void* out, std::size_t n,
                    std::uint64_t* store_size) override;
  StatusOr<void*> MapExisting(const std::string& path, std::size_t size,
                              std::uintptr_t addr, bool read_only) override;
  void Unmap(void* base, std::size_t size) override;
  /// The mapping is the store: there is nothing to write back.
  Status Sync(void*, std::size_t) override { return Status::OK(); }
  Status Remove(const std::string& path) override;

 private:
  int Find(const std::string& path);

  std::mutex mutex_;
  std::map<std::string, int> fds_;
};

// ---------------------------------------------------------------------
// CPU placement and time

/// Worker CPUs are the highest-numbered CPUs of the allowed set, one
/// each; the main thread (and every thread it creates later, such as
/// the Atlas pruner) keeps the rest.
struct CpuPlan {
  std::vector<int> allowed;
  std::vector<int> workers;
  std::vector<int> others;
};
CpuPlan PlanCpus(int workers);
bool SetCurrentThreadCpus(const std::vector<int>& cpus);

inline std::uint64_t Ticks() { return __rdtsc(); }
/// TSC reads fenced against the code they bracket. A bare rdtsc may run
/// before the loads of the call it ends have completed, which hides
/// cache misses; rdtscp waits for every earlier instruction.
inline std::uint64_t TicksBefore() {
  _mm_lfence();
  const std::uint64_t ticks = __rdtsc();
  _mm_lfence();
  return ticks;
}
inline std::uint64_t TicksAfter() {
  unsigned int aux = 0;
  const std::uint64_t ticks = __rdtscp(&aux);
  _mm_lfence();
  return ticks;
}
double SteadySeconds();
double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// Pairs of (steady clock, TSC) readings taken around a phase convert
/// its TSC latencies to wall time.
struct TickCalibration {
  double start_s = 0;
  std::uint64_t start_ticks = 0;
  double ticks_per_ns = 0;
  void Begin();
  void End();
};

// ---------------------------------------------------------------------
// Latency

enum Op : int { kPut = 0, kGet, kIncr, kRemove, kNumOps };
const char* OpName(Op op);

/// Log-linear histogram of TSC durations: exact below 2^kSubBits ticks,
/// then 2^kSubBits buckets per power of two (under 1% relative width).
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kMaxBits = 40;
  static constexpr int kBuckets =
      (1 << kSubBits) + (kMaxBits - kSubBits) * (1 << kSubBits);

  LatencyHistogram() : buckets_(kBuckets, 0) {}
  void Record(std::uint64_t ticks) {
    ++buckets_[Bucket(ticks)];
    ++count_;
  }
  void Merge(const LatencyHistogram& other);
  std::uint64_t count() const { return count_; }
  /// Midpoint, in ticks, of the bucket holding quantile q (0 < q < 1).
  double Quantile(double q) const;

 private:
  static int Bucket(std::uint64_t ticks);
  static double Midpoint(int bucket);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Calls one worker completed inside one time window, and the latency
/// of the calls it timed.
struct WindowCounts {
  std::uint64_t calls = 0;
  std::array<LatencyHistogram, kNumOps> latency;
};

/// Window index and stop flag the main thread publishes to workers.
struct PhaseClock {
  std::atomic<std::uint32_t> window{0};
  std::atomic<bool> stop{false};
};

/// One sampled Map-call span of the traced run (TSC ticks).
struct CallSpan {
  Op op;
  std::uint64_t start;
  std::uint64_t end;
};

/// A worker's share of one measured phase. Workers update theirs on
/// every call, so each sits on its own cache lines.
struct alignas(64) WorkerPhase {
  std::vector<WindowCounts> windows;
  std::uint64_t calls = 0;
  /// Sum of the timed call durations; every call is timed when traced.
  std::uint64_t busy_ticks = 0;
  double cpu_s = 0;
  std::vector<CallSpan> spans;
};

/// Wraps each Map call a worker makes: counts it in the current window
/// and times it. Untraced timed loops time one call in kSampleEvery so
/// the two TSC reads stay a small share of a sub-microsecond call;
/// traced runs and fixed-size phases time every call.
class CallMeter {
 public:
  static constexpr std::uint64_t kSampleEvery = 8;
  static constexpr std::size_t kMaxSpans = 256;

  CallMeter(WorkerPhase* out, const PhaseClock* clock, bool time_every_call,
            bool keep_spans)
      : out_(out),
        clock_(clock),
        time_every_call_(time_every_call),
        keep_spans_(keep_spans),
        last_window_(static_cast<std::uint32_t>(out->windows.size() - 1)) {}

  bool stopped() const { return clock_->stop.load(std::memory_order_relaxed); }

  template <typename F>
  auto Call(Op op, F&& call) {
    std::uint32_t window = clock_->window.load(std::memory_order_relaxed);
    if (window > last_window_) window = last_window_;
    WindowCounts& counts = out_->windows[window];
    ++counts.calls;
    ++out_->calls;
    if (!time_every_call_ && ++untimed_ < kSampleEvery) return call();
    untimed_ = 0;
    const std::uint64_t start = TicksBefore();
    if constexpr (std::is_void_v<decltype(call())>) {
      call();
      Finish(op, counts, start);
    } else {
      auto result = call();
      Finish(op, counts, start);
      return result;
    }
  }

 private:
  void Finish(Op op, WindowCounts& counts, std::uint64_t start) {
    const std::uint64_t end = TicksAfter();
    counts.latency[op].Record(end - start);
    out_->busy_ticks += end - start;
    if (keep_spans_ && out_->spans.size() < kMaxSpans) {
      out_->spans.push_back({op, start, end});
    }
  }

  WorkerPhase* out_;
  const PhaseClock* clock_;
  const bool time_every_call_;
  const bool keep_spans_;
  const std::uint32_t last_window_;
  std::uint64_t untimed_ = 0;
};

// ---------------------------------------------------------------------
// Workers

/// Fixed set of worker threads, each pinned to its own CPU. Start() hands
/// every worker the same job (called with the worker index); Wait()
/// returns when all have finished it.
class WorkerPool {
 public:
  explicit WorkerPool(const std::vector<int>& cpus);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(cpus_.size()); }
  const std::vector<int>& cpus() const { return cpus_; }
  /// True when every worker was pinned to its CPU.
  bool pinned() const { return pinned_ == size(); }
  void Start(std::function<void(int)> job);
  void Wait();
  void Run(std::function<void(int)> job) {
    Start(std::move(job));
    Wait();
  }

 private:
  void Main(int index);

  const std::vector<int> cpus_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::function<void(int)> job_;
  std::uint64_t generation_ = 0;
  int running_ = 0;
  int pinned_ = 0;
  int ready_ = 0;
  bool exit_ = false;
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------
// Phases

/// Per-worker results of one measured phase plus the main thread's view of
/// it: window boundaries, process CPU time and the TSC calibration.
struct Phase {
  std::vector<WorkerPhase> workers;
  std::vector<double> window_s;  // wall length of each full window
  PhaseClock clock;
  TickCalibration calibration;
  double wall_s = 0;
  double process_cpu_s = 0;

  /// Sizes every worker's window table (`windows` full windows plus one
  /// overflow slot for calls that land after the last boundary).
  void Prepare(int worker_count, int windows);
  std::uint64_t calls() const;
  double worker_cpu_s() const;
  /// Completed calls per second in each full window.
  std::vector<double> WindowRates() const;
  /// Per-window quantile q of `op` latency, in microseconds, over the
  /// windows holding at least `min_samples` timed calls of that op.
  std::vector<double> WindowQuantilesUs(Op op, double q,
                                        std::uint64_t min_samples) const;
};

/// Runs `job` on every worker for `windows` windows of `window_s`
/// seconds each, advancing the shared window index (and calling
/// `on_window`, if set, at each boundary), then raises the stop flag and
/// waits for the workers.
void RunTimedPhase(WorkerPool* pool, Phase* phase, int windows,
                   double window_s, std::function<void(int)> job,
                   const std::function<void()>& on_window = nullptr);
/// Runs a fixed amount of work as one window.
void RunFixedPhase(WorkerPool* pool, Phase* phase,
                   std::function<void(int)> job);

// ---------------------------------------------------------------------
// Statistics and output

double Median(std::vector<double> values);

/// Spans of the traced run, kept in memory and written once at exit.
class SpanLog {
 public:
  SpanLog(bool enabled, std::string run_id);
  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open span; returns its id.
  int Begin(const char* name);
  /// Closes span `id`; returns its duration in seconds.
  double End(int id);
  /// Records the sampled Map-call spans of `phase` under span `parent`.
  void AddCallSpans(const Phase& phase, int parent);
  bool Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int id;
    int parent;
    double start_s;
    double end_s;
    int worker;
  };
  const bool enabled_;
  const std::string run_id_;
  const double origin_s_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Span that also measures itself when the log is off, so untraced runs
/// can time the same steps.
class ScopedStep {
 public:
  ScopedStep(SpanLog* log, const char* name)
      : log_(log),
        id_(log->enabled() ? log->Begin(name) : -1),
        start_s_(SteadySeconds()) {}
  ~ScopedStep() { Stop(); }
  ScopedStep(const ScopedStep&) = delete;
  ScopedStep& operator=(const ScopedStep&) = delete;
  int id() const { return id_; }
  /// Ends the step (idempotent) and returns its duration in seconds.
  double Stop() {
    if (!stopped_) {
      stopped_ = true;
      seconds_ = SteadySeconds() - start_s_;
      if (id_ >= 0) log_->End(id_);
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  const int id_;
  const double start_s_;
  bool stopped_ = false;
  double seconds_ = 0;
};

}  // namespace tsp::perfbench

#endif  // TSP_PERFBENCH_HARNESS_H_
