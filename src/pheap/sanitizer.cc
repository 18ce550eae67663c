#include "pheap/sanitizer.h"

#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/race_detector.h"
#include "common/logging.h"
#include "pheap/allocator.h"
#include "pheap/layout.h"

namespace tsp::pheap {

namespace tspsan_internal {
std::atomic<bool> g_active{false};
thread_local int g_ocs_depth = 0;
}  // namespace tspsan_internal

namespace {

using tspsan_internal::g_active;
using tspsan_internal::g_ocs_depth;

struct ExemptRange {
  std::uintptr_t start;
  std::uintptr_t end;
  const char* domain;
};

// All sanitizer state. The SIGSEGV handler reads only fields that are
// immutable between Enable and Disable (region/base/end pointers,
// registry, exit code), never the mutex-guarded page maps: a fault on a
// page with an open window or an exempt page cannot happen (those pages
// are PROT_READ|PROT_WRITE), so every arena fault is a violation.
struct State {
  std::mutex mutex;
  MappedRegion* region = nullptr;
  const TypeRegistry* registry = nullptr;
  int violation_exit_code = 0;
  std::uintptr_t protect_start = 0;  // first protected byte (page-aligned)
  std::uintptr_t protect_end = 0;    // one past the last protected byte
  std::size_t page_size = 4096;
  /// Open-window refcount per page (keyed by page base address).
  std::unordered_map<std::uintptr_t, int> window_pages;
  /// Pages permanently unprotected for §4.1 non-blocking domains.
  std::unordered_set<std::uintptr_t> exempt_pages;
  std::vector<ExemptRange> exempt_ranges;
  /// Every range ever registered, keyed by start address. Unlike
  /// exempt_ranges this survives Enable/Disable cycles: structures
  /// register at session open (before any checker is armed), so Enable
  /// replays this registry instead of expecting re-registration.
  std::unordered_map<std::uintptr_t, ExemptRange> durable_ranges;
  struct sigaction old_segv_action;
  std::atomic<std::uint64_t> windows_opened{0};
};

State& GetState() {
  static State state;
  return state;
}

std::uintptr_t PageOf(const State& state, std::uintptr_t addr) {
  return addr & ~(static_cast<std::uintptr_t>(state.page_size) - 1);
}

void ProtectPages(std::uintptr_t first_page, std::uintptr_t last_page,
                  int prot);

/// Records `range` as live-exempt and unprotects its pages inside the
/// protected span. Caller holds state.mutex with the sanitizer active.
void ApplyExemptRangeLocked(State& state, const ExemptRange& range) {
  state.exempt_ranges.push_back(range);
  const std::uintptr_t first = PageOf(state, range.start);
  const std::uintptr_t last = PageOf(state, range.end - 1);
  for (std::uintptr_t page = first; page <= last;
       page += state.page_size) {
    if (page < state.protect_start || page >= state.protect_end) continue;
    if (state.exempt_pages.insert(page).second) {
      auto it = state.window_pages.find(page);
      if (it != state.window_pages.end()) {
        // Already unprotected by an open window; drop the refcount entry
        // so the window's close leaves the now-exempt page writable.
        state.window_pages.erase(it);
      } else {
        ProtectPages(page, page, PROT_READ | PROT_WRITE);
      }
    }
  }
}

void ProtectPages(std::uintptr_t first_page, std::uintptr_t last_page,
                  int prot) {
  const std::size_t len =
      last_page - first_page + GetState().page_size;
  if (mprotect(reinterpret_cast<void*>(first_page), len, prot) != 0) {
    TSP_LOG(FATAL) << "TSPSan: mprotect failed: " << std::strerror(errno);
  }
}

/// Best-effort description of the arena object containing `offset`:
/// walks the block headers from the arena start (blocks are carved
/// contiguously below the bump pointer). Returns false if the walk hits
/// a torn header before reaching `offset`.
bool DescribeBlockAt(const State& state, std::uint64_t offset, char* buf,
                     std::size_t buf_len) {
  const RegionHeader* header = state.region->header();
  const std::uint64_t bump =
      header->bump_offset.load(std::memory_order_relaxed);
  std::uint64_t cursor = header->arena_offset;
  while (cursor + sizeof(BlockHeader) <= bump) {
    const auto* block = static_cast<const BlockHeader*>(
        state.region->FromOffset(cursor));
    const std::uint64_t size = block->block_size;
    if (size == 0 || size % kGranule != 0 || cursor + size > bump ||
        Allocator::SizeClassOf(size) < 0) {
      return false;  // torn or foreign bytes; stop the walk
    }
    if (offset < cursor + size) {
      const char* type_name = "<untyped leaf>";
      const char* block_state =
          block->magic == BlockHeader::kAllocatedMagic  ? "allocated"
          : block->magic == BlockHeader::kFreeMagic     ? "FREE"
                                                        : "CORRUPT-MAGIC";
      if (block->type_id != 0) {
        type_name = "<unregistered type>";
        if (state.registry != nullptr) {
          const TypeInfo* info = state.registry->Find(block->type_id);
          if (info != nullptr) type_name = info->name.c_str();
        }
      }
      std::snprintf(buf, buf_len,
                    "%s block @ offset %" PRIu64 " size %" PRIu64
                    " type_id 0x%x (%s), store at +%" PRIu64,
                    block_state, cursor, size, block->type_id, type_name,
                    offset - cursor);
      return true;
    }
    cursor += size;
  }
  return false;
}

void ReportViolationAndDie(void* fault_addr) {
  State& state = GetState();
  // Everything below is best-effort: we are inside a SIGSEGV handler
  // and about to abort, so strict async-signal-safety is relaxed in
  // exchange for a useful diagnostic (same tradeoff ASan makes).
  char line[512];
  const auto addr = reinterpret_cast<std::uintptr_t>(fault_addr);
  const std::uint64_t offset = state.region->ToOffset(fault_addr);
  int len = std::snprintf(
      line, sizeof(line),
      "\n=== TSPSan: unlogged persistent store ===\n"
      "  address:   %p (region offset %" PRIu64 ")\n"
      "  ocs state: %s\n",
      fault_addr, offset,
      g_ocs_depth > 0 ? "INSIDE an outermost critical section (depth > 0): "
                        "this store bypassed the undo log and would break "
                        "rollback"
                      : "outside any critical section: raw stores here are "
                        "not rolled back; route them through the heap/store "
                        "API anyway");
  (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(len));

  char desc[384];
  if (DescribeBlockAt(state, offset, desc, sizeof(desc))) {
    len = std::snprintf(line, sizeof(line), "  object:    %s\n", desc);
    (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(len));
  }
  for (const ExemptRange& range : state.exempt_ranges) {
    if (addr >= range.start && addr < range.end) {
      len = std::snprintf(
          line, sizeof(line),
          "  note:      address is inside non-blocking domain '%s' but its "
          "page was re-protected; this should not happen\n",
          range.domain);
      (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(len));
    }
  }
  len = std::snprintf(
      line, sizeof(line),
      "  fix:       use AtlasThread::Store/StoreBytes (logged), or register "
      "the object's range as a non-blocking domain if it is §4.1 lock-free "
      "code\n  backtrace:\n");
  (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(len));

  void* frames[32];
  const int depth = backtrace(frames, 32);
  backtrace_symbols_fd(frames, depth, STDERR_FILENO);

  if (state.violation_exit_code != 0) _exit(state.violation_exit_code);
  abort();
}

void SegvHandler(int signo, siginfo_t* info, void* context) {
  State& state = GetState();
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  if (!g_active.load(std::memory_order_acquire) ||
      addr < state.protect_start || addr >= state.protect_end) {
    // Not ours: restore the previous disposition and re-raise by
    // returning (the faulting instruction re-executes).
    sigaction(SIGSEGV, &state.old_segv_action, nullptr);
    if (state.old_segv_action.sa_handler == SIG_DFL ||
        state.old_segv_action.sa_handler == SIG_IGN) {
      return;  // default action fires on re-execution
    }
    // Chain a previous custom handler directly.
    if (state.old_segv_action.sa_flags & SA_SIGINFO) {
      state.old_segv_action.sa_sigaction(signo, info, context);
    } else {
      state.old_segv_action.sa_handler(signo);
    }
    return;
  }
  // A protected-arena fault. Reads never fault on PROT_READ pages, so
  // this is a write outside every write window: a contract violation.
  ReportViolationAndDie(info->si_addr);
}

}  // namespace

Status TspSanitizer::Enable(MappedRegion* region, const Options& options) {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (g_active.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("TSPSan is already enabled");
  }
  if (region->read_only()) {
    return Status::InvalidArgument(
        "TSPSan needs a writable region (read-only opens cannot take "
        "write windows)");
  }
  if (region->opened_after_crash()) {
    return Status::FailedPrecondition(
        "heap needs recovery; enable TSPSan after rollback + GC (recovery "
        "itself is a blessed writer)");
  }

  state.region = region;
  state.registry = options.registry;
  state.violation_exit_code = options.violation_exit_code;
  state.page_size = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const RegionHeader* header = region->header();
  const auto base = reinterpret_cast<std::uintptr_t>(region->base());
  // Protect only pages fully inside the arena; the header and runtime
  // area (undo log, allocator metadata in the control block) are the
  // resilience runtime's own state and stay writable.
  const std::uintptr_t arena_start = base + header->arena_offset;
  state.protect_start =
      (arena_start + state.page_size - 1) &
      ~(static_cast<std::uintptr_t>(state.page_size) - 1);
  state.protect_end = base + region->size();
  state.window_pages.clear();
  state.exempt_pages.clear();
  state.exempt_ranges.clear();
  state.windows_opened.store(0, std::memory_order_relaxed);

  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = SegvHandler;
  action.sa_flags = SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGSEGV, &action, &state.old_segv_action) != 0) {
    return Status::IoError(std::string("sigaction: ") +
                           std::strerror(errno));
  }
  if (mprotect(reinterpret_cast<void*>(state.protect_start),
               state.protect_end - state.protect_start, PROT_READ) != 0) {
    sigaction(SIGSEGV, &state.old_segv_action, nullptr);
    return Status::IoError(std::string("mprotect: ") +
                           std::strerror(errno));
  }
  // Replay every non-blocking range registered so far (typically at
  // session open, before the sanitizer was armed): §4.1 domains stay
  // writable without needing to re-register after each Enable.
  for (const auto& [start, range] : state.durable_ranges) {
    ApplyExemptRangeLocked(state, range);
  }
  g_active.store(true, std::memory_order_release);
  return Status::OK();
}

void TspSanitizer::Disable() {
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!g_active.load(std::memory_order_relaxed)) return;
  g_active.store(false, std::memory_order_release);
  mprotect(reinterpret_cast<void*>(state.protect_start),
           state.protect_end - state.protect_start,
           PROT_READ | PROT_WRITE);
  sigaction(SIGSEGV, &state.old_segv_action, nullptr);
  state.region = nullptr;
  state.registry = nullptr;
  state.window_pages.clear();
  state.exempt_pages.clear();
  state.exempt_ranges.clear();
}

bool TspSanitizer::enabled_by_env() {
  const char* value = std::getenv("TSP_SANITIZE_PERSIST");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

void TspSanitizer::RegisterNonBlockingRange(const void* p, std::size_t n,
                                            const char* domain) {
  // TSPRace shares the §4.1 exemption registry: mirror every range
  // before the active() gate below — structures register during session
  // open, before either checker is armed, and TSPRace records ranges
  // unconditionally so it can apply them at Enable.
  analysis::RaceDetector::RegisterNonBlockingRange(p, n, domain);
  if (n == 0) return;
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto start = reinterpret_cast<std::uintptr_t>(p);
  const ExemptRange range{start, start + n, domain};
  auto [it, inserted] = state.durable_ranges.try_emplace(start, range);
  if (!inserted && it->second.end >= range.end) {
    return;  // already durably registered (arena-wide ranges re-register
             // on every session open/attach)
  }
  it->second = range;
  if (g_active.load(std::memory_order_relaxed)) {
    ApplyExemptRangeLocked(state, range);
  }
}

void TspSanitizer::ForgetRangesIn(const void* base, std::size_t n) {
  analysis::RaceDetector::ForgetNonBlockingRangesIn(base, n);
  if (base == nullptr || n == 0) return;
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mutex);
  const auto lo = reinterpret_cast<std::uintptr_t>(base);
  const std::uintptr_t hi = lo + n;
  for (auto it = state.durable_ranges.begin();
       it != state.durable_ranges.end();) {
    if (it->second.start < hi && it->second.end > lo) {
      it = state.durable_ranges.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t TspSanitizer::windows_opened() {
  return GetState().windows_opened.load(std::memory_order_relaxed);
}

void TspSanitizer::OpenWindow(const void* p, std::size_t n) {
  if (n == 0) return;
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!g_active.load(std::memory_order_relaxed)) return;
  state.windows_opened.fetch_add(1, std::memory_order_relaxed);
  const auto start = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = PageOf(state, start);
  const std::uintptr_t last = PageOf(state, start + n - 1);
  for (std::uintptr_t page = first; page <= last;
       page += state.page_size) {
    if (page < state.protect_start || page >= state.protect_end) continue;
    if (state.exempt_pages.count(page) != 0) continue;
    if (++state.window_pages[page] == 1) {
      ProtectPages(page, page, PROT_READ | PROT_WRITE);
    }
  }
}

void TspSanitizer::CloseWindow(const void* p, std::size_t n) {
  if (n == 0) return;
  State& state = GetState();
  std::lock_guard<std::mutex> lock(state.mutex);
  if (!g_active.load(std::memory_order_relaxed)) return;
  const auto start = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = PageOf(state, start);
  const std::uintptr_t last = PageOf(state, start + n - 1);
  for (std::uintptr_t page = first; page <= last;
       page += state.page_size) {
    if (page < state.protect_start || page >= state.protect_end) continue;
    if (state.exempt_pages.count(page) != 0) continue;
    auto it = state.window_pages.find(page);
    if (it == state.window_pages.end()) continue;  // exempted mid-window
    if (--it->second == 0) {
      state.window_pages.erase(it);
      ProtectPages(page, page, PROT_READ);
    }
  }
}

}  // namespace tsp::pheap
