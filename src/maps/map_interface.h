// Copyright 2026 The TSP Authors.
// The paper's §5.1 "map interface": a local key-value store mapping
// integer keys to integer values, implemented both with mutexes
// (maps/mutex_hashmap.h, the Atlas case study) and with non-blocking
// algorithms (lockfree/skiplist.h and lockfree/hashmap.h, served
// through workload/map_variants.cc).

#ifndef TSP_MAPS_MAP_INTERFACE_H_
#define TSP_MAPS_MAP_INTERFACE_H_

#include <cstdint>
#include <functional>
#include <optional>

namespace tsp::maps {

/// Abstract map for workload drivers and checkers. All methods are
/// thread-safe; each call is atomic and isolated (one OCS for the
/// mutex-based implementation, one linearizable operation for the
/// non-blocking one).
class Map {
 public:
  virtual ~Map() = default;

  /// Sets key → value (inserting if absent).
  virtual void Put(std::uint64_t key, std::uint64_t value) = 0;

  /// Returns the value, or nullopt if absent.
  virtual std::optional<std::uint64_t> Get(std::uint64_t key) const = 0;

  /// Atomically adds delta (inserting the key with value = delta when
  /// absent); returns the new value.
  virtual std::uint64_t IncrementBy(std::uint64_t key,
                                    std::uint64_t delta) = 0;

  /// Deletes the key; returns false if absent.
  virtual bool Remove(std::uint64_t key) = 0;

  /// Visits every (key, value) pair. Not required to be a consistent
  /// snapshot under concurrency; exact when quiescent.
  virtual void ForEach(
      const std::function<void(std::uint64_t, std::uint64_t)>& fn) const = 0;

  /// Human-readable variant name ("mutex-hashmap/log-only", ...).
  virtual const char* name() const = 0;

  /// Releases per-thread resources (Atlas slot, epoch slot). Worker
  /// threads call this before exiting.
  virtual void OnThreadExit() {}
};

}  // namespace tsp::maps

#endif  // TSP_MAPS_MAP_INTERFACE_H_
