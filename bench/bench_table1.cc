// The one driver of the paper's §5.1 map workload (each iteration sets
// c1, increments a random key of H and sets c2: three atomic map
// operations). Each throughput exhibit on that loop is a grid of flags:
//
//   E1  Table 1: the defaults, six variants at 8 threads, with the §5.2
//       derived rows. The reproduced result is the shape native >
//       log-only > log+flush; absolute numbers depend on the host.
//   E8  lock granularity: --buckets-per-lock 1,10,... --high 262144
//   E8b thread sweep: --variants <log-only, lock-free> --threads 1,2,4,8
//   E13 flight-recorder cost: --trace off,on --reps N
//   E14 multi-process kill drill: --procs N (a mode of its own, below)
//
// The grid is shards x buckets-per-lock x variants x threads x trace
// arms, each point on fresh heaps, repeated whole --reps times (so a
// recorder A/B alternates off and on). Points differing only in variant
// form a group, which shows a derived row only if it holds both variants
// the row compares. Derived rows and the log-overhead gate use each
// point's best rep; the recorder gate uses the median over reps of each
// rep's back-to-back off/on pair.
//
// The JSON (results/table1.json by default) has a header (build type,
// nproc, flush instruction, reps); per point, every rep's Miter/s,
// lines flushed, fences and trace events, and its last rep's metrics
// registry snapshot, the only copy of the atlas.* and alloc.* counters
// (empty under -DTSP_OBS=OFF); the groups' derived rows; and the
// recorder off/on overheads (best rep and median paired).
//
// Flags: --variants LIST  (MapVariantName list; default every row of
//                          workload/map_variants.cc)
//        --threads LIST   (default 8, as in the paper)
//        --iters N        (per thread, default 150000)
//        --high N         (|H| and the bucket count; default 2^20)
//        --shards LIST    (shard heaps sharing a 1.5 GiB arena; default 1)
//        --buckets-per-lock LIST  (mutex map; default 1000, the paper's)
//        --trace LIST     (recorder arms off,on; absent = TSP_TRACE)
//        --reps N         (grid repetitions; default 1)
//        --json PATH      (default results/table1.json; "" disables)
//        --max-log-overhead-pct P, --max-trace-overhead-pct P
//                         (exit 1 if the first group's log-only overhead,
//                          or any recorder off/on pair's median paired
//                          loss, exceeds P%; P <= 0, the default,
//                          disables the gate)
//        --procs N        (N > 1: the E14 drill. N processes split the
//                          first --threads entry over one log-only domain
//                          (first --shards entry) and are SIGKILLed and
//                          replaced at random. Writes results/mproc.json
//                          (or --json); exits 1 unless the final attach
//                          verifies clean.)
//        --kills N        (SIGKILLs in the drill; default 3N)
// `--flag value` and `--flag=value` both work. A malformed,
// non-positive or unknown value exits 2 before any heap exists.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flush.h"
#include "faultsim/crash_harness.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace {

using tsp::obs::MetricsSnapshot;
using tsp::workload::FindMapVariantRow;
using tsp::workload::MapSession;
using tsp::workload::MapVariant;
using tsp::workload::MapVariantName;
using tsp::workload::MapVariantRows;
using tsp::workload::RunMapWorkload;
using tsp::workload::WorkloadOptions;

constexpr std::uint64_t kTotalArenaBytes = 1536ULL * 1024 * 1024;
#ifdef TSP_OBS_DISABLED
constexpr bool kObsCompiledIn = false;  // -DTSP_OBS=OFF
#else
constexpr bool kObsCompiledIn = true;
#endif

/// A point's flight-recorder arm. kDefault leaves the TSP_TRACE setting
/// alone; kOff/kOn set it before the heap opens, where it is consulted.
enum class Trace { kDefault, kOff, kOn };

const char* TraceName(Trace trace) {
  return trace == Trace::kOff ? "off" : trace == Trace::kOn ? "on" : "default";
}

struct Rep {
  double miters = 0;
  std::uint64_t lines_flushed = 0;
  std::uint64_t fences = 0;
  std::uint64_t trace_events = 0;  // published into the recorders' rings
};

struct Point {
  MapVariant variant;
  int threads;
  int shards;
  std::uint64_t buckets_per_lock;
  Trace trace;
  std::vector<Rep> reps;
  /// Taken at the end of the last rep, before its session closed (the
  /// pull sources unregister at close).
  MetricsSnapshot metrics;

  double best() const {
    double best = 0;
    for (const Rep& rep : reps) best = std::max(best, rep.miters);
    return best;
  }
  /// Same grid cell and trace arm; the variant may differ.
  bool SameGroup(const Point& other) const {
    return threads == other.threads && shards == other.shards &&
           buckets_per_lock == other.buckets_per_lock && trace == other.trace;
  }
};

/// How much slower `measured` ran than `base`, in percent of `base`.
double LossPct(const Point& measured, const Point& base) {
  return (1 - measured.best() / base.best()) * 100;
}

/// The median over reps of each rep's loss of `on` against `off`. The
/// two arms of one rep run back to back, so host drift slower than a
/// rep cancels out of each rep's pair; the best reps of the two arms may
/// come from moments far apart.
double MedianPairedLossPct(const Point& on, const Point& off) {
  std::vector<double> losses;
  for (std::size_t r = 0; r < on.reps.size() && r < off.reps.size(); ++r) {
    losses.push_back((1 - on.reps[r].miters / off.reps[r].miters) * 100);
  }
  std::sort(losses.begin(), losses.end());
  const std::size_t n = losses.size();
  return n % 2 == 1 ? losses[n / 2] : (losses[n / 2 - 1] + losses[n / 2]) / 2;
}

/// Points that differ only in their variant, in grid order.
using Group = std::vector<const Point*>;

const Point* Find(const Group& group, MapVariant variant) {
  for (const Point* point : group) {
    if (point->variant == variant) return point;
  }
  return nullptr;
}

/// The derived rows of §5.2: `sign * LossPct(measured, base)`, so an
/// overhead is positive when `measured` is slower and the TSP gain when
/// log-only is faster.
struct DerivedRow {
  const char* key;
  const char* text;  // printf format of the text table's line
  MapVariant measured;
  MapVariant base;
  double sign;
};
constexpr DerivedRow kDerivedRows[] = {
    {"log_only_overhead_pct",
     "  Atlas log-only overhead vs native:   %5.1f%%  (paper: ~35%% / ~30%%)\n",
     MapVariant::kMutexLogOnly, MapVariant::kMutexNative, 1},
    {"log_flush_overhead_pct",
     "  Atlas log+flush overhead vs native:  %5.1f%%  (paper: ~57%% / ~50%%)\n",
     MapVariant::kMutexLogFlush, MapVariant::kMutexNative, 1},
    {"tsp_gain_pct",
     "  TSP gain (log-only vs log+flush):    %5.1f%%  (paper: +49%% / +42%%)\n",
     MapVariant::kMutexLogOnly, MapVariant::kMutexLogFlush, -1},
};

/// The rows of kDerivedRows that `group` holds both variants of, with
/// their values.
std::vector<std::pair<const DerivedRow*, double>> Derive(const Group& group) {
  std::vector<std::pair<const DerivedRow*, double>> rows;
  for (const DerivedRow& row : kDerivedRows) {
    const Point* measured = Find(group, row.measured);
    const Point* base = Find(group, row.base);
    if (measured && base) {
      rows.push_back({&row, row.sign * LossPct(*measured, *base)});
    }
  }
  return rows;
}

/// The paper's shape, native > log-only > log+flush: 1 if it holds, 0 if
/// not, -1 if `group` lacks one of the three.
int ShapeHolds(const Group& group) {
  const Point* native = Find(group, MapVariant::kMutexNative);
  const Point* log_only = Find(group, MapVariant::kMutexLogOnly);
  const Point* log_flush = Find(group, MapVariant::kMutexLogFlush);
  if (!native || !log_only || !log_flush) return -1;
  return native->best() > log_only->best() &&
         log_only->best() > log_flush->best();
}

/// Recorder (off, on) pairs: one variant in one grid cell.
using TracePairs = std::vector<std::pair<const Point*, const Point*>>;

/// One rep of `point` on fresh shard heaps.
void RunPoint(WorkloadOptions workload, Point* point) {
  workload.threads = point->threads;
  const auto shards = static_cast<unsigned>(point->shards);
  MapSession::Config config;
  config.variant = point->variant;
  config.path = "/dev/shm/tsp_table1_" + std::to_string(getpid()) + ".heap";
  // Hold the TOTAL arena constant across shard counts so the sweep
  // compares routing/locality, not memory budget.
  config.heap_size = kTotalArenaBytes / shards;
  config.runtime_area_size = 64 * 1024 * 1024;
  config.shards = point->shards;
  config.hash_options.bucket_count =  // the lock-free map needs two
      std::max<std::uint64_t>(2, workload.high_range / shards);
  config.hash_options.buckets_per_lock = point->buckets_per_lock;

  const std::vector<std::string> paths = MapSession::ShardPaths(config);
  for (const std::string& path : paths) unlink(path.c_str());
  if (point->trace != Trace::kDefault) {
    tsp::obs::SetTraceEnabled(point->trace == Trace::kOn);
  }
  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    for (const std::string& path : paths) unlink(path.c_str());
    std::exit(1);
  }

  tsp::GlobalFlushStats().Reset();
  tsp::obs::DefaultRegistry().ResetOwned();
  Rep rep;
  rep.miters =
      RunMapWorkload((*session)->map(), workload).millions_iter_per_sec;
  rep.lines_flushed = tsp::GlobalFlushStats().lines_flushed.load();
  rep.fences = tsp::GlobalFlushStats().fences.load();
  for (int s = 0; s < (*session)->shard_count(); ++s) {
    const tsp::obs::Recorder* recorder = (*session)->heap(s)->recorder();
    if (recorder != nullptr) rep.trace_events += recorder->EventsRecorded();
  }
  point->metrics = tsp::obs::DefaultRegistry().Snapshot();
  point->reps.push_back(rep);

  (*session)->CloseClean();
  session->reset();
  for (const std::string& path : paths) unlink(path.c_str());
  if (kObsCompiledIn && point->trace == Trace::kOn && rep.trace_events == 0) {
    std::fprintf(stderr, "FAIL: a traced %s run recorded no events — the "
                         "recorder did not attach\n",
                 MapVariantName(point->variant));
    std::exit(1);
  }
}

/// Writes `json` to `path`, creating its directory if needed; false,
/// after saying why on stderr, on failure.
bool WriteJson(const std::string& path, const std::string& json) {
  // "dir/" for a path in a directory, "" for one in the working one.
  const std::string dir = path.substr(0, path.rfind('/') + 1);
  if (!dir.empty() && mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fprintf(f, "%s\n", json.c_str()) >= 0;
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  std::printf("json results written to %s\n", path.c_str());
  return true;
}

/// Builds one JSON object field by field. Doubles that are not finite
/// (a ratio over a zero rate) become null: printf would write `nan` or
/// `inf`, which no JSON reader accepts.
class JsonObject {
 public:
  JsonObject& Raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) + "\": ";
    body_ += json;
    return *this;
  }
  JsonObject& Str(const char* key, const char* value) {
    return Raw(key, "\"" + std::string(value) + "\"");
  }
  JsonObject& Int(const char* key, std::uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Num(const char* key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    return Raw(key, std::isfinite(value) ? buf : "null");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JoinArray(const std::vector<std::string>& items,
                      const char* indent) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += std::string(i == 0 ? "\n" : ",\n") + indent + items[i];
  }
  return out + "]";
}

JsonObject CellJson(const Point& point) {
  JsonObject cell;
  cell.Int("threads", point.threads)
      .Int("shards", point.shards)
      .Int("buckets_per_lock", point.buckets_per_lock);
  return cell;
}

std::string GridJson(const WorkloadOptions& workload, int reps,
                     const std::vector<Point>& points,
                     const std::vector<Group>& groups,
                     const TracePairs& trace_pairs) {
  std::vector<std::string> point_items;
  for (const Point& point : points) {
    std::vector<std::string> rep_items;
    for (const Rep& rep : point.reps) {
      rep_items.push_back(JsonObject()
                              .Num("miters_per_sec", rep.miters)
                              .Int("lines_flushed", rep.lines_flushed)
                              .Int("fences", rep.fences)
                              .Int("trace_events", rep.trace_events)
                              .str());
    }
    point_items.push_back(
        CellJson(point)
            .Str("variant", MapVariantName(point.variant))
            .Str("label", FindMapVariantRow(point.variant)->label)
            .Str("trace", TraceName(point.trace))
            .Num("best_miters_per_sec", point.best())
            .Raw("reps", JoinArray(rep_items, "      "))
            .Raw("metrics", point.metrics.ToJson())
            .str());
  }
  std::vector<std::string> group_items;
  for (const Group& group : groups) {
    const auto derived = Derive(group);
    if (derived.empty()) continue;
    JsonObject rows;
    for (const auto& [row, value] : derived) rows.Num(row->key, value);
    JsonObject item = CellJson(*group.front());
    item.Str("trace", TraceName(group.front()->trace))
        .Raw("derived", rows.str());
    const int shape = ShapeHolds(group);
    if (shape >= 0) item.Raw("shape_holds", shape ? "true" : "false");
    group_items.push_back(item.str());
  }
  std::vector<std::string> overhead_items;
  for (const auto& [off, on] : trace_pairs) {
    overhead_items.push_back(CellJson(*off)
                                 .Str("variant", MapVariantName(off->variant))
                                 .Num("miters_off", off->best())
                                 .Num("miters_on", on->best())
                                 .Num("overhead_pct", LossPct(*on, *off))
                                 .Num("median_paired_overhead_pct",
                                      MedianPairedLossPct(*on, *off))
                                 .str());
  }
  return JsonObject()
      .Str("benchmark", "table1")
      .Str("build_type", tsp::bench::BuildType())
      .Int("nproc", std::thread::hardware_concurrency())
      .Str("flush_instruction",
           tsp::FlushInstructionName(tsp::BestFlushInstruction()))
      .Raw("obs_compiled_in", kObsCompiledIn ? "true" : "false")
      .Int("reps", reps)
      .Int("iterations_per_thread", workload.iterations_per_thread)
      .Int("high_range", workload.high_range)
      .Raw("points", JoinArray(point_items, "    "))
      .Raw("groups", JoinArray(group_items, "    "))
      .Raw("trace_overhead", JoinArray(overhead_items, "    "))
      .str();
}

void PrintGroup(const Group& group) {
  const Point& first = *group.front();
  std::printf("\n--- threads %d, shard heaps %d (total arena %" PRIu64
              " MB), %" PRIu64 " buckets/lock, recorder %s ---\n",
              first.threads, first.shards, kTotalArenaBytes >> 20,
              first.buckets_per_lock, TraceName(first.trace));
  std::printf("  %-26s %14s %16s %14s %12s %14s\n", "variant", "best Miter/s",
              "lines flushed", "seq leases", "resyncs", "mag allocs");
  for (const Point* point : group) {
    const MetricsSnapshot& m = point->metrics;
    std::printf("  %-26s %14.3f %16" PRIu64 " %14" PRIu64 " %12" PRIu64
                " %14" PRIu64 "\n",
                FindMapVariantRow(point->variant)->label, point->best(),
                point->reps.back().lines_flushed,
                m.counter("atlas.seq_blocks_leased"),
                m.counter("atlas.seq_resyncs"),
                m.counter("alloc.magazine_allocs"));
  }
  if (const Point* logged = Find(group, MapVariant::kMutexLogOnly)) {
    const MetricsSnapshot& m = logged->metrics;
    std::printf("\nUndo-log diet (log-only run): %" PRIu64 " ring records, %"
                PRIu64 " slot arms, %" PRIu64 " fresh-store elisions\n",
                m.counter("atlas.undo_records"), m.counter("atlas.flit_rearms"),
                m.counter("atlas.elided_fresh"));
  }
  const auto derived = Derive(group);
  if (!derived.empty()) {
    std::printf("\nDerived (paper §5.2 reports desktop/server):\n");
  }
  for (const auto& [row, value] : derived) std::printf(row->text, value);
  const int shape = ShapeHolds(group);
  if (shape >= 0) {
    std::printf("\nshape check (native > log-only > log+flush): %s\n",
                shape ? "HOLDS" : "VIOLATED");
  }
}

/// E14, the multi-process kill drill of --procs. Returns the exit code.
int RunMproc(int procs, int kills, int shards,
             const WorkloadOptions& workload, const std::string& json_path) {
  tsp::faultsim::MultiProcessCrashOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path =
      "/dev/shm/tsp_mproc_" + std::to_string(getpid()) + ".heap";
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 64 * 1024 * 1024;
  options.session.shards = shards;
  options.workload = workload;
  // --threads is the total budget; split it across the workers.
  options.workload.threads = std::max(1, workload.threads / procs);
  options.workers = procs;
  options.kills = kills > 0 ? kills : 3 * procs;

  std::printf("Multi-process kill drill: %d attached workers x %d "
              "threads, %d shard%s, %d SIGKILLs\n",
              options.workers, options.workload.threads, shards,
              shards == 1 ? "" : "s", options.kills);
  const tsp::faultsim::MultiProcessCrashReport report =
      tsp::faultsim::RunMultiProcessCrashCycles(options);
  std::printf("%s\n", report.ToString().c_str());
  for (const std::string& path : MapSession::ShardPaths(options.session)) {
    unlink(path.c_str());
  }

  const std::string atlas =
      JsonObject()
          .Int("robust_steals", report.robust_steals)
          .Int("dead_owner_rollbacks", report.dead_owner_rollbacks)
          .Int("slots_harvested", report.slots_harvested)
          .str();
  const std::string json =
      JsonObject()
          .Str("benchmark", "mproc")
          .Int("procs", options.workers)
          .Int("threads_per_proc", options.workload.threads)
          .Int("shards", shards)
          .Int("kills", report.kills_delivered)
          .Int("workers_spawned", report.workers_spawned)
          .Raw("atlas", atlas)
          .Int("wedged_locks", report.wedged_locks)
          .Int("completed_iterations", report.final_completed_iterations)
          .Raw("all_ok", report.all_ok ? "true" : "false")
          .str();
  if (!json_path.empty() && !WriteJson(json_path, json)) return 1;
  return report.all_ok ? 0 : 1;
}

/// Parses a positive decimal integer that fills all of `text` and fits T.
template <typename T>
bool ParsePositive(const std::string& text, T* out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0' || value == 0 ||
      value > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

bool ParseVariant(const std::string& text, MapVariant* out) {
  for (const auto& row : MapVariantRows()) {
    if (text == row.name) {
      *out = row.variant;
      return true;
    }
  }
  return false;
}

bool ParseTrace(const std::string& text, Trace* out) {
  *out = text == "on" ? Trace::kOn : Trace::kOff;
  return text == "on" || text == "off";
}

bool ParsePct(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && std::isfinite(*out);
}

/// Parses every token of a comma-separated list; false on an empty or
/// rejected token.
template <typename T, typename Parse>
bool ParseList(const std::string& text, Parse parse, std::vector<T>* out) {
  out->clear();
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    T value;
    if (!parse(text.substr(start, comma - start), &value)) return false;
    out->push_back(value);
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

template <typename T>
bool Contains(const std::vector<T>& list, T value) {
  return std::find(list.begin(), list.end(), value) != list.end();
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadOptions workload;
  workload.iterations_per_thread = 150000;
  workload.high_range = 1 << 20;
  std::vector<MapVariant> variants;
  for (const auto& row : MapVariantRows()) variants.push_back(row.variant);
  std::vector<int> threads = {8};
  std::vector<int> shards = {1};
  std::vector<std::uint64_t> buckets_per_lock = {1000};
  std::vector<Trace> traces = {Trace::kDefault};
  int reps = 1;
  std::string json_path = "results/table1.json";
  bool json_path_set = false;
  double max_log_overhead_pct = 0;    // <= 0: no gate
  double max_trace_overhead_pct = 0;  // <= 0: no gate
  int procs = 1;
  int kills = 0;  // 0: default 3 * procs
  for (int i = 1; i < argc; ++i) {
    // Accept `--flag value` and `--flag=value`.
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    bool ok = true;
    if (flag == "--variants") {
      ok = ParseList(value, ParseVariant, &variants);
    } else if (flag == "--threads") {
      ok = ParseList(value, ParsePositive<int>, &threads);
    } else if (flag == "--iters") {
      ok = ParsePositive(value, &workload.iterations_per_thread);
    } else if (flag == "--high") {
      ok = ParsePositive(value, &workload.high_range);
    } else if (flag == "--shards") {
      ok = ParseList(value, ParsePositive<int>, &shards);
    } else if (flag == "--buckets-per-lock") {
      ok = ParseList(value, ParsePositive<std::uint64_t>, &buckets_per_lock);
    } else if (flag == "--trace") {
      ok = ParseList(value, ParseTrace, &traces);
    } else if (flag == "--reps") {
      ok = ParsePositive(value, &reps);
    } else if (flag == "--json") {
      json_path = value;
      json_path_set = true;
    } else if (flag == "--max-log-overhead-pct") {
      ok = ParsePct(value, &max_log_overhead_pct);
    } else if (flag == "--max-trace-overhead-pct") {
      ok = ParsePct(value, &max_trace_overhead_pct);
    } else if (flag == "--procs") {
      ok = ParsePositive(value, &procs);
    } else if (flag == "--kills") {
      ok = ParsePositive(value, &kills);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: '%s'\n", flag.c_str(),
                   value.c_str());
      return 2;
    }
  }
  if (max_log_overhead_pct > 0 &&
      !(Contains(variants, MapVariant::kMutexNative) &&
        Contains(variants, MapVariant::kMutexLogOnly))) {
    std::fprintf(stderr, "--max-log-overhead-pct needs the mutex-native and "
                         "mutex-atlas-log-only variants\n");
    return 2;
  }
  const bool trace_ab =
      Contains(traces, Trace::kOff) && Contains(traces, Trace::kOn);
  if (max_trace_overhead_pct > 0 && !trace_ab) {
    std::fprintf(stderr, "--max-trace-overhead-pct needs --trace off,on\n");
    return 2;
  }
  // Each arm once, off first: every on-point's off partner is then the
  // point just before it.
  if (trace_ab) traces = {Trace::kOff, Trace::kOn};

  if (procs > 1) {
    workload.threads = threads.front();
    return RunMproc(procs, kills, shards.front(), workload,
                    json_path_set ? json_path : "results/mproc.json");
  }

  std::printf("Table 1 reproduction: map workload, |H|=%" PRIu64 ", %" PRIu64
              " iterations/thread, reps %d\n",
              workload.high_range, workload.iterations_per_thread, reps);
  std::printf("(each iteration = 3 atomic map operations; flush insn: %s; "
              "build: %s; nproc %u)\n",
              tsp::FlushInstructionName(tsp::BestFlushInstruction()),
              tsp::bench::BuildType(), std::thread::hardware_concurrency());
  if (!kObsCompiledIn) {
    std::printf("[TSP_OBS=OFF build: the metrics registry is empty, so the "
                "seq-lease, resync, mag-alloc and diet counters read 0]\n");
  }

  // Shard counts and lock grains outermost, then each variant's thread
  // sweep, with the recorder arms innermost so an off/on pair runs back
  // to back. The committed E1, E8 and E8b results ran in this order.
  std::vector<Point> points;
  for (const int s : shards) {
    for (const std::uint64_t b : buckets_per_lock) {
      for (const MapVariant variant : variants) {
        for (const int t : threads) {
          for (const Trace trace : traces) {
            points.push_back(Point{variant, t, s, b, trace, {}, {}});
          }
        }
      }
    }
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (Point& point : points) RunPoint(workload, &point);
  }

  std::vector<Group> groups;
  TracePairs trace_pairs;
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto group = std::find_if(groups.begin(), groups.end(), [&](auto& g) {
      return g.front()->SameGroup(points[i]);
    });
    if (group == groups.end()) group = groups.emplace(groups.end());
    group->push_back(&points[i]);
    if (trace_ab && points[i].trace == Trace::kOn) {
      trace_pairs.push_back({&points[i - 1], &points[i]});
    }
  }
  for (const Group& group : groups) PrintGroup(group);

  int exit_code = 0;
  if (!trace_pairs.empty()) {
    std::printf("\nFlight-recorder overhead: best rep per arm, and the "
                "median over reps of each rep's off/on pair (gated; "
                "budget: <=5%%):\n");
  }
  for (const auto& [off, on] : trace_pairs) {
    const double pct = MedianPairedLossPct(*on, *off);
    std::printf("  %-26s threads %d, shards %d, %" PRIu64 " buckets/lock: "
                "off %.3f, on %.3f Miter/s: best %+.2f%%, paired median "
                "%+.2f%%\n",
                MapVariantName(off->variant), off->threads, off->shards,
                off->buckets_per_lock, off->best(), on->best(),
                LossPct(*on, *off), pct);
    if (max_trace_overhead_pct > 0 && pct > max_trace_overhead_pct) {
      std::fprintf(stderr, "FAIL: recorder overhead %.2f%% (paired median) "
                           "exceeds the --max-trace-overhead-pct %.2f%% "
                           "budget\n",
                   pct, max_trace_overhead_pct);
      exit_code = 1;
    }
  }

  if (!json_path.empty() &&
      !WriteJson(json_path,
                 GridJson(workload, reps, points, groups, trace_pairs))) {
    return 1;
  }
  // Gate on the first group; later ones (more shards, other thread
  // counts) are reported, but their shape depends on the core count.
  // The flag check above put native and log-only in every group, so
  // the first derived row is the log-only overhead.
  if (max_log_overhead_pct > 0) {
    const double overhead = Derive(groups.front()).front().second;
    if (overhead > max_log_overhead_pct) {
      std::fprintf(stderr,
                   "FAIL: log-only overhead %.1f%% exceeds the "
                   "--max-log-overhead-pct %.1f%% budget\n",
                   overhead, max_log_overhead_pct);
      return 1;
    }
    std::printf("log-only overhead gate: %.1f%% <= %.1f%% budget\n",
                overhead, max_log_overhead_pct);
  }
  return ShapeHolds(groups.front()) == 0 ? 1 : exit_code;
}
