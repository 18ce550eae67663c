// Copyright 2026 The TSP Authors.
// The benchmark's workloads: table1-logonly, lockfree-kv and
// crash-recovery (see README.md for what each loads and bypasses).

#ifndef TSP_PERFBENCH_WORKLOADS_H_
#define TSP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace tsp::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// The traced run: spans around every call into the library, layer
  /// counters at phase boundaries, per-layer metrics instead of the
  /// end-to-end ones.
  bool traced = false;
  /// Reduced sizes, for the benchmark's self-tests.
  bool quick = false;
  /// Names one output check (CorruptionNames) whose input is corrupted
  /// on purpose, to show that the check can fail.
  std::string corrupt;
  /// Where the traced run writes its spans.
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks by name; false once any instance failed.
  std::map<std::string, bool> checks;
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  /// Metric-name prefixes present in the layer registry snapshots.
  std::vector<std::string> registry_prefixes;
  /// Worker CPU time ÷ (workers × wall), and process CPU time outside the
  /// workers ÷ wall, over the timed phases; reported on every run.
  double worker_cpu_util = 0;
  double background_cpu_util = 0;
  bool correct() const { return failed == 0 && failures.empty(); }
};

const std::vector<std::string>& WorkloadNames();
const std::vector<std::string>& CorruptionNames();

/// Runs one workload on `pool` (the pinned workers) and fills in every
/// end-to-end metric, or every per-layer metric when traced.
Status RunWorkload(const RunOptions& options, WorkerPool* pool,
                   RunResult* result);

}  // namespace tsp::perfbench

#endif  // TSP_PERFBENCH_WORKLOADS_H_
