// Copyright 2026 The TSP Authors.
// Helpers for pheap tests: unique region files in /dev/shm, removed
// when the test ends.

#ifndef TSP_TESTS_PHEAP_TEST_UTIL_H_
#define TSP_TESTS_PHEAP_TEST_UTIL_H_

#include <unistd.h>

#include <atomic>
#include <string>

namespace tsp::pheap::testing {

/// Returns a fresh region file path (file does not exist yet).
inline std::string UniqueRegionPath(const std::string& tag) {
  static std::atomic<int> counter{0};
  const int n = counter.fetch_add(1);
  const std::string path = "/dev/shm/tsp_test_" + std::to_string(getpid()) +
                           "_" + tag + "_" + std::to_string(n) + ".heap";
  ::unlink(path.c_str());
  return path;
}

/// RAII deleter for region files.
class ScopedRegionFile {
 public:
  explicit ScopedRegionFile(std::string tag)
      : path_(UniqueRegionPath(std::move(tag))) {}
  ~ScopedRegionFile() { ::unlink(path_.c_str()); }

  ScopedRegionFile(const ScopedRegionFile&) = delete;
  ScopedRegionFile& operator=(const ScopedRegionFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace tsp::pheap::testing

#endif  // TSP_TESTS_PHEAP_TEST_UTIL_H_
