// Copyright 2026 The TSP Authors.

#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace tsp::perfbench {
namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

StatusOr<void*> MapFixed(int fd, std::size_t size, std::uintptr_t addr,
                         int prot) {
  void* want = reinterpret_cast<void*>(addr);
  void* got = mmap(want, size, prot, MAP_SHARED | MAP_FIXED_NOREPLACE, fd, 0);
  if (got == MAP_FAILED) return Errno("mmap at fixed address");
  if (got != want) {
    munmap(got, size);
    return Status::FailedPrecondition("fixed heap address is occupied");
  }
  return got;
}

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

// ---------------------------------------------------------------------
// MemfdBackend

MemfdBackend::~MemfdBackend() {
  for (const auto& [path, fd] : fds_) close(fd);
}

int MemfdBackend::Find(const std::string& path) {
  const auto it = fds_.find(path);
  return it == fds_.end() ? -1 : it->second;
}

StatusOr<void*> MemfdBackend::CreateAndMap(const std::string& path,
                                           std::size_t size,
                                           std::uintptr_t addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (Find(path) >= 0) return Status::AlreadyExists("heap exists: " + path);
  const int fd = memfd_create(path.c_str(), MFD_CLOEXEC);
  if (fd < 0) return Errno("memfd_create " + path);
  if (ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const Status status = Errno("ftruncate " + path);
    close(fd);
    return status;
  }
  auto mapped = MapFixed(fd, size, addr, PROT_READ | PROT_WRITE);
  if (!mapped.ok()) {
    close(fd);
    return mapped;
  }
  fds_[path] = fd;
  return mapped;
}

Status MemfdBackend::PeekHeader(const std::string& path, void* out,
                                std::size_t n, std::uint64_t* store_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int fd = Find(path);
  if (fd < 0) return Status::NotFound("no heap: " + path);
  struct stat st {};
  if (fstat(fd, &st) != 0) return Errno("fstat " + path);
  *store_size = static_cast<std::uint64_t>(st.st_size);
  std::memset(out, 0, n);
  const std::size_t want = std::min(n, static_cast<std::size_t>(st.st_size));
  if (pread(fd, out, want, 0) != static_cast<ssize_t>(want)) {
    return Errno("pread " + path);
  }
  return Status::OK();
}

StatusOr<void*> MemfdBackend::MapExisting(const std::string& path,
                                          std::size_t size,
                                          std::uintptr_t addr,
                                          bool read_only) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int fd = Find(path);
  if (fd < 0) return Status::NotFound("no heap: " + path);
  return MapFixed(fd, size, addr,
                  read_only ? PROT_READ : PROT_READ | PROT_WRITE);
}

void MemfdBackend::Unmap(void* base, std::size_t size) { munmap(base, size); }

Status MemfdBackend::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = fds_.find(path);
  if (it == fds_.end()) return Status::NotFound("no heap: " + path);
  close(it->second);
  fds_.erase(it);
  return Status::OK();
}

// ---------------------------------------------------------------------
// CPU placement and time

CpuPlan PlanCpus(int workers) {
  CpuPlan plan;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) plan.allowed.push_back(cpu);
    }
  }
  const int n = static_cast<int>(plan.allowed.size());
  if (n > workers) {
    plan.others.assign(plan.allowed.begin(), plan.allowed.end() - workers);
    plan.workers.assign(plan.allowed.end() - workers, plan.allowed.end());
  } else if (n > 0) {
    // Too few CPUs for one each: workers share them and the main
    // thread floats over all of them.
    plan.others = plan.allowed;
    for (int w = 0; w < workers; ++w) plan.workers.push_back(plan.allowed[w % n]);
  }
  return plan;
}

bool SetCurrentThreadCpus(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

double SteadySeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

void TickCalibration::Begin() {
  start_s = SteadySeconds();
  start_ticks = Ticks();
}

void TickCalibration::End() {
  const double seconds = SteadySeconds() - start_s;
  const std::uint64_t ticks = Ticks() - start_ticks;
  ticks_per_ns = seconds > 0 ? static_cast<double>(ticks) / (seconds * 1e9)
                             : 0;
}

// ---------------------------------------------------------------------
// Latency

const char* OpName(Op op) {
  switch (op) {
    case kPut:
      return "put";
    case kGet:
      return "get";
    case kIncr:
      return "incr";
    case kRemove:
      return "remove";
    case kNumOps:
      break;
  }
  return "unknown";
}

int LatencyHistogram::Bucket(std::uint64_t ticks) {
  constexpr std::uint64_t kLinear = 1ULL << kSubBits;
  if (ticks < kLinear) return static_cast<int>(ticks);
  int bits = 64 - __builtin_clzll(ticks);  // ticks in [2^(bits-1), 2^bits)
  if (bits > kMaxBits) return kBuckets - 1;
  const int shift = bits - 1 - kSubBits;
  const std::uint64_t sub = (ticks >> shift) - kLinear;  // [0, 2^kSubBits)
  return static_cast<int>(kLinear + (bits - 1 - kSubBits) * kLinear + sub);
}

double LatencyHistogram::Midpoint(int bucket) {
  constexpr int kLinear = 1 << kSubBits;
  if (bucket < kLinear) return bucket;
  const int octave = (bucket - kLinear) / kLinear;  // bits - 1 - kSubBits
  const int sub = (bucket - kLinear) % kLinear;
  const double width = std::ldexp(1.0, octave);
  return (kLinear + sub) * width + width / 2;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) return Midpoint(i);
  }
  return Midpoint(kBuckets - 1);
}

// ---------------------------------------------------------------------
// Workers

WorkerPool::WorkerPool(const std::vector<int>& cpus) : cpus_(cpus) {
  threads_.reserve(cpus_.size());
  for (int i = 0; i < size(); ++i) {
    threads_.emplace_back([this, i] { Main(i); });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return ready_ == size(); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    exit_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void WorkerPool::Main(int index) {
  const bool pinned = SetCurrentThreadCpus({cpus_[index]});
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  pinned_ += pinned ? 1 : 0;
  ++ready_;
  done_.notify_all();
  for (;;) {
    wake_.wait(lock, [&] { return exit_ || generation_ != seen; });
    if (exit_) return;
    seen = generation_;
    const std::function<void(int)> job = job_;
    lock.unlock();
    job(index);
    lock.lock();
    if (--running_ == 0) done_.notify_all();
  }
}

void WorkerPool::Start(std::function<void(int)> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = std::move(job);
    running_ = size();
    ++generation_;
  }
  wake_.notify_all();
}

void WorkerPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return running_ == 0; });
}

// ---------------------------------------------------------------------
// Phases

void Phase::Prepare(int worker_count, int windows) {
  workers.assign(worker_count, WorkerPhase{});
  for (WorkerPhase& worker : workers) worker.windows.resize(windows + 1);
  window_s.clear();
  clock.window.store(0, std::memory_order_relaxed);
  clock.stop.store(false, std::memory_order_relaxed);
}

std::uint64_t Phase::calls() const {
  std::uint64_t total = 0;
  for (const WorkerPhase& worker : workers) total += worker.calls;
  return total;
}

double Phase::worker_cpu_s() const {
  double total = 0;
  for (const WorkerPhase& worker : workers) total += worker.cpu_s;
  return total;
}

std::vector<double> Phase::WindowRates() const {
  std::vector<double> rates;
  for (std::size_t w = 0; w < window_s.size(); ++w) {
    std::uint64_t calls = 0;
    for (const WorkerPhase& worker : workers) calls += worker.windows[w].calls;
    if (window_s[w] > 0) rates.push_back(static_cast<double>(calls) / window_s[w]);
  }
  return rates;
}

std::vector<double> Phase::WindowQuantilesUs(Op op, double q,
                                             std::uint64_t min_samples) const {
  std::vector<double> values;
  if (calibration.ticks_per_ns <= 0) return values;
  for (std::size_t w = 0; w < window_s.size(); ++w) {
    LatencyHistogram merged;
    for (const WorkerPhase& worker : workers) {
      merged.Merge(worker.windows[w].latency[op]);
    }
    if (merged.count() < min_samples || merged.count() == 0) continue;
    values.push_back(merged.Quantile(q) / calibration.ticks_per_ns / 1e3);
  }
  return values;
}

namespace {

std::function<void(int)> Instrumented(Phase* phase,
                                      std::function<void(int)> job) {
  return [phase, job = std::move(job)](int worker) {
    const double cpu0 = ThreadCpuSeconds();
    job(worker);
    phase->workers[worker].cpu_s = ThreadCpuSeconds() - cpu0;
  };
}

}  // namespace

void RunTimedPhase(WorkerPool* pool, Phase* phase, int windows,
                   double window_s, std::function<void(int)> job,
                   const std::function<void()>& on_window) {
  phase->Prepare(pool->size(), windows);
  const double cpu0 = ProcessCpuSeconds();
  phase->calibration.Begin();
  const double start = phase->calibration.start_s;
  pool->Start(Instrumented(phase, std::move(job)));
  double boundary = start;
  for (int w = 0; w < windows; ++w) {
    const double next = start + window_s * (w + 1);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, next - SteadySeconds())));
    const double now = SteadySeconds();
    phase->clock.window.store(static_cast<std::uint32_t>(w + 1),
                              std::memory_order_relaxed);
    phase->window_s.push_back(now - boundary);
    boundary = now;
    if (on_window) on_window();
  }
  phase->clock.stop.store(true, std::memory_order_relaxed);
  pool->Wait();
  phase->calibration.End();
  phase->wall_s = boundary - start;
  phase->process_cpu_s = ProcessCpuSeconds() - cpu0;
}

void RunFixedPhase(WorkerPool* pool, Phase* phase,
                   std::function<void(int)> job) {
  phase->Prepare(pool->size(), 1);
  const double cpu0 = ProcessCpuSeconds();
  phase->calibration.Begin();
  pool->Run(Instrumented(phase, std::move(job)));
  phase->calibration.End();
  phase->wall_s = SteadySeconds() - phase->calibration.start_s;
  phase->window_s.push_back(phase->wall_s);
  phase->process_cpu_s = ProcessCpuSeconds() - cpu0;
}

// ---------------------------------------------------------------------
// Statistics and output

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

SpanLog::SpanLog(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), origin_s_(SteadySeconds()) {}

int SpanLog::Begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, id, open_.empty() ? -1 : open_.back(),
                    SteadySeconds() - origin_s_, -1, -1});
  open_.push_back(id);
  return id;
}

double SpanLog::End(int id) {
  Span& span = spans_[id];
  span.end_s = SteadySeconds() - origin_s_;
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
  return span.end_s - span.start_s;
}

void SpanLog::AddCallSpans(const Phase& phase, int parent) {
  if (!enabled_ || phase.calibration.ticks_per_ns <= 0) return;
  const double base = phase.calibration.start_s - origin_s_;
  const double per_s = phase.calibration.ticks_per_ns * 1e9;
  for (std::size_t w = 0; w < phase.workers.size(); ++w) {
    for (const CallSpan& call : phase.workers[w].spans) {
      const auto offset = [&](std::uint64_t ticks) {
        return base + static_cast<double>(static_cast<std::int64_t>(
                          ticks - phase.calibration.start_ticks)) /
                          per_s;
      };
      spans_.push_back({std::string("map.") + OpName(call.op),
                        static_cast<int>(spans_.size()), parent,
                        offset(call.start), offset(call.end),
                        static_cast<int>(w)});
    }
  }
}

bool SpanLog::Write(const std::string& path) const {
  if (!enabled_ || path.empty()) return true;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"run_id\": \"%s\", \"spans\": [", run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n{\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"worker\": %d}",
                 i == 0 ? "" : ",", span.id, span.parent, span.name.c_str(),
                 span.start_s, span.end_s, span.worker);
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace tsp::perfbench
