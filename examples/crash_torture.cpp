// crash_torture: the paper's §5 fault-injection experiment at full
// scale — hundreds of SIGKILL-induced process crashes, each followed by
// recovery and an Eq.(1)/Eq.(2) integrity audit.
//
//   $ crash_torture [--variant <MapVariantName>|all]
//                   [--cycles N] [--threads T] [--min-ms A --max-ms B]
//
// `all` (the default) runs every variant whose plan survives some
// failure (a SIGKILL is the mildest): every row of
// workload/map_variants.cc but mutex-native.
//
// Expected output: "ALL RECOVERIES CONSISTENT" for every variant,
// matching the paper: "Both our mutex-based and non-blocking map
// implementations recovered completely successfully after hundreds of
// injected process crashes."

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "faultsim/crash_harness.h"
#include "workload/map_session.h"

namespace {

using tsp::faultsim::CrashCycleOptions;
using tsp::faultsim::CrashCycleReport;
using tsp::faultsim::RunCrashCycles;
using tsp::workload::MapVariant;
using tsp::workload::MapVariantName;

int RunVariant(MapVariant variant, int cycles, int threads, int min_ms,
               int max_ms) {
  const std::string path = "/dev/shm/tsp_torture_" +
                           std::to_string(getpid()) + "_" +
                           std::to_string(static_cast<int>(variant)) +
                           ".heap";
  unlink(path.c_str());

  CrashCycleOptions options;
  options.session.variant = variant;
  options.session.path = path;
  options.session.heap_size = 512 * 1024 * 1024;
  options.workload.threads = threads;
  options.workload.high_range = 1 << 16;
  options.cycles = cycles;
  options.min_run_ms = min_ms;
  options.max_run_ms = max_ms;
  options.verbose = false;

  std::printf("=== %s: injecting %d crashes (%d threads, %d-%dms) ===\n",
              MapVariantName(variant), cycles, threads, min_ms, max_ms);
  std::fflush(stdout);
  const CrashCycleReport report = RunCrashCycles(options);
  std::printf("%s\n\n", report.ToString().c_str());
  unlink(path.c_str());
  return report.all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string variant = "all";
  int cycles = 100;
  int threads = 8;
  int min_ms = 10;
  int max_ms = 100;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--variant") variant = argv[i + 1];
    else if (flag == "--cycles") cycles = std::atoi(argv[i + 1]);
    else if (flag == "--threads") threads = std::atoi(argv[i + 1]);
    else if (flag == "--min-ms") min_ms = std::atoi(argv[i + 1]);
    else if (flag == "--max-ms") max_ms = std::atoi(argv[i + 1]);
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  std::vector<MapVariant> variants;
  for (const auto& row : tsp::workload::MapVariantRows()) {
    if (variant == row.name ||
        (variant == "all" && !row.requirements.tolerated.empty())) {
      variants.push_back(row.variant);
    }
  }
  if (variants.empty()) {
    std::fprintf(stderr, "unknown variant %s\n", variant.c_str());
    return 2;
  }

  int failures = 0;
  for (const MapVariant v : variants) {
    failures += RunVariant(v, cycles, threads, min_ms, max_ms);
  }
  if (failures == 0) {
    std::printf("ALL VARIANTS: every recovery consistent.\n");
  }
  return failures;
}
