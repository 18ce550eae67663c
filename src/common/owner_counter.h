// Copyright 2026 The TSP Authors.
// Counters written by one owning thread and read by any thread.

#ifndef TSP_COMMON_OWNER_COUNTER_H_
#define TSP_COMMON_OWNER_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace tsp {

/// Non-atomic increment of a counter that concurrent stats readers may
/// load: a relaxed store keeps the pair data-race-free without the cost
/// of a locked RMW. Only the counter's owner may call it. Returns the
/// new count.
inline std::uint64_t Bump(std::atomic<std::uint64_t>& counter,
                          std::uint64_t n = 1) {
  const std::uint64_t bumped = counter.load(std::memory_order_relaxed) + n;
  counter.store(bumped, std::memory_order_relaxed);
  return bumped;
}

}  // namespace tsp

#endif  // TSP_COMMON_OWNER_COUNTER_H_
