// Copyright 2026 The TSP Authors.
// tsp_perfbench: runs one benchmark workload and prints, as the last line
// of standard output, {"correct", "attempted", "failed", "metrics"}.
// The line before it is {"context": ...}: host, CPU placement, build,
// flush instruction, seed, CPU utilisation and every output check.
//
// Usage: tsp_perfbench --workload NAME --seed N --seconds S [--trace 0|1]
//                      [--trace-out PATH] [--quick] [--corrupt CHECK]
//
// Normally started by perfbench/run.py, which builds it first.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/flush.h"
#include "harness.h"
#include "workloads.h"

namespace {

using tsp::perfbench::RunOptions;
using tsp::perfbench::RunResult;

constexpr int kWorkers = 2;

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string IntList(const std::vector<int>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(values[i]);
  }
  return out + "]";
}

std::string StringList(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Quote(values[i]);
  }
  return out + "]";
}

bool IsOptimised(const std::string& build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "tsp_perfbench: %s\nusage: tsp_perfbench --workload NAME "
               "--seed N --seconds S [--trace 0|1] [--trace-out PATH] "
               "[--quick] [--corrupt CHECK]\n",
               message);
  return 2;
}

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  for (const std::string& candidate : names) {
    if (candidate == name) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--quick") {
      options.quick = true;
    } else if (!has_value) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      options.workload = argv[++i];
    } else if (flag == "--seed") {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      options.traced = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--trace-out") {
      options.trace_out = argv[++i];
    } else if (flag == "--corrupt") {
      options.corrupt = argv[++i];
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!Contains(tsp::perfbench::WorkloadNames(), options.workload)) {
    return Usage("--workload must be table1-logonly, lockfree-kv or "
                 "crash-recovery");
  }
  if (!(options.seconds > 0) || options.seconds > 600) {
    return Usage("--seconds must be in (0, 600]");
  }
  if (!options.corrupt.empty() &&
      !Contains(tsp::perfbench::CorruptionNames(), options.corrupt)) {
    return Usage("unknown --corrupt check");
  }
  const std::string build_type = tsp::bench::BuildType();
  if (!IsOptimised(build_type)) {
    std::fprintf(stderr,
                 "tsp_perfbench: refusing to report from a %s build; build "
                 "with CMAKE_BUILD_TYPE=Release or RelWithDebInfo\n",
                 build_type.c_str());
    return 3;
  }

  // Workers get CPUs of their own; this thread, and every thread it
  // starts (the Atlas pruner among them), keeps the rest.
  const tsp::perfbench::CpuPlan plan = tsp::perfbench::PlanCpus(kWorkers);
  tsp::perfbench::SetCurrentThreadCpus(plan.others);
  RunResult result;
  bool pinned = false;
  {
    tsp::perfbench::WorkerPool pool(plan.workers);
    pinned = pool.pinned();
    const tsp::Status status =
        tsp::perfbench::RunWorkload(options, &pool, &result);
    if (!status.ok()) {
      std::fprintf(stderr, "tsp_perfbench: %s failed: %s\n",
                   options.workload.c_str(), status.ToString().c_str());
      return 1;
    }
  }

  std::string checks = "{";
  for (const auto& [name, ok] : result.checks) {
    checks += (checks.size() > 1 ? ", " : "") + Quote(name) + ": " +
              (ok ? "true" : "false");
  }
  checks += "}";
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"traced\": %s, \"quick\": %s, \"corrupt\": %s, \"nproc\": %ld, "
      "\"allowed_cpus\": %s, \"worker_cpus\": %s, \"main_cpus\": %s, "
      "\"workers_pinned\": %s, \"build_type\": %s, "
      "\"flush_instruction\": %s, \"worker_cpu_util\": %s, "
      "\"background_cpu_util\": %s, \"checks\": %s, \"failures\": %s, "
      "\"registry_prefixes\": %s}}\n",
      Quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.traced ? "true" : "false",
      options.quick ? "true" : "false", Quote(options.corrupt).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), IntList(plan.allowed).c_str(),
      IntList(plan.workers).c_str(), IntList(plan.others).c_str(),
      pinned ? "true" : "false", Quote(build_type).c_str(),
      Quote(tsp::FlushInstructionName(tsp::BestFlushInstruction())).c_str(),
      Number(result.worker_cpu_util).c_str(),
      Number(result.background_cpu_util).c_str(), checks.c_str(), StringList(result.failures).c_str(),
      StringList(result.registry_prefixes).c_str());

  std::string metrics = "{";
  for (const auto& [name, metric] : result.metrics) {
    metrics += (metrics.size() > 1 ? ", " : "") + Quote(name) +
               ": {\"value\": " + Number(metric.value) +
               ", \"unit\": " + Quote(metric.unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return 0;
}
