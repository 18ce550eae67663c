// Copyright 2026 The TSP Authors.
// RegionBackend: where a persistent region's bytes live and how they
// get mapped at their fixed virtual address.
//
// MappedRegion (region.h) owns the *format* of a region — header
// validation, generation/clean-shutdown bookkeeping, slot revalidation.
// The backend owns the *mechanics*: creating the backing store, mapping
// it MAP_SHARED at a caller-fixed address, syncing, removing. Splitting
// the two lets one process host domains on different media:
//
//   PosixFileBackend    any filesystem file; the paper's TSP substrate
//                       (kernel keeps every issued store after a
//                       process crash). A file under /dev/shm survives
//                       the process, not the machine — exactly what TSP
//                       alone guarantees.
//   AnonTestBackend     anonymous memory with an in-process image kept
//                       across unmap/remap, so unit tests exercise
//                       crash/reopen cycles with no filesystem at all.
//
// Raw mmap/MAP_FIXED calls belong in this file's implementation only;
// tsp_lint's raw-mmap rule flags them anywhere else.

#ifndef TSP_PHEAP_BACKEND_H_
#define TSP_PHEAP_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace tsp::pheap {

/// Names the /proc/self/maps entries overlapping [addr, addr+size), so
/// a failed fixed mapping can say *what* occupies the range instead of
/// a bare errno. Returns "" when nothing overlaps (the failure had a
/// different cause) or the maps file is unavailable.
std::string DescribeMappingConflict(std::uintptr_t addr, std::size_t size);

class RegionBackend {
 public:
  virtual ~RegionBackend() = default;

  /// Short stable identifier ("posix-file", "anon-test", ...).
  virtual const char* name() const = 0;

  /// Creates the backing store at `path` sized `size` (kAlreadyExists
  /// if present) and maps it read-write at exactly `addr`.
  /// kFailedPrecondition when the range is occupied, with the
  /// conflicting mapping named.
  virtual StatusOr<void*> CreateAndMap(const std::string& path,
                                       std::size_t size,
                                       std::uintptr_t addr) = 0;

  /// Copies the first `n` bytes of the backing store into `out` without
  /// mapping it at a fixed address, and reports the store's total size.
  /// kNotFound when the store does not exist.
  virtual Status PeekHeader(const std::string& path, void* out,
                            std::size_t n, std::uint64_t* store_size) = 0;

  /// Maps the existing backing store at exactly `addr`. `read_only`
  /// maps a private read-only view for diagnostics (never dirties the
  /// store).
  virtual StatusOr<void*> MapExisting(const std::string& path,
                                      std::size_t size, std::uintptr_t addr,
                                      bool read_only) = 0;

  /// Releases a mapping made by CreateAndMap/MapExisting.
  virtual void Unmap(void* base, std::size_t size) = 0;

  /// Pushes modified bytes to the backing store (msync for files).
  virtual Status Sync(void* base, std::size_t size) = 0;

  /// Deletes the backing store.
  virtual Status Remove(const std::string& path) = 0;
};

/// The default backend: an ordinary file mapped MAP_SHARED.
class PosixFileBackend : public RegionBackend {
 public:
  const char* name() const override { return "posix-file"; }
  StatusOr<void*> CreateAndMap(const std::string& path, std::size_t size,
                               std::uintptr_t addr) override;
  Status PeekHeader(const std::string& path, void* out, std::size_t n,
                    std::uint64_t* store_size) override;
  StatusOr<void*> MapExisting(const std::string& path, std::size_t size,
                              std::uintptr_t addr, bool read_only) override;
  void Unmap(void* base, std::size_t size) override;
  Status Sync(void* base, std::size_t size) override;
  Status Remove(const std::string& path) override;
};

/// Anonymous memory with an in-process image saved on Unmap and
/// restored on MapExisting, so one process can run create / crash
/// (destroy without clean shutdown) / reopen / recover cycles against
/// pure RAM. The image lives in this backend *instance*: reuse the same
/// shared_ptr across opens. Not durable across processes.
class AnonTestBackend : public RegionBackend {
 public:
  const char* name() const override { return "anon-test"; }
  StatusOr<void*> CreateAndMap(const std::string& path, std::size_t size,
                               std::uintptr_t addr) override;
  Status PeekHeader(const std::string& path, void* out, std::size_t n,
                    std::uint64_t* store_size) override;
  StatusOr<void*> MapExisting(const std::string& path, std::size_t size,
                              std::uintptr_t addr, bool read_only) override;
  void Unmap(void* base, std::size_t size) override;
  Status Sync(void* base, std::size_t size) override;
  Status Remove(const std::string& path) override;

 private:
  struct Store {
    std::vector<unsigned char> image;  // contents while unmapped
    std::size_t size = 0;
    void* mapped_base = nullptr;  // non-null while mapped
  };

  std::mutex mutex_;
  std::map<std::string, Store> stores_;
};

/// The process-wide default PosixFileBackend used when RegionOptions
/// leaves the backend unset.
std::shared_ptr<RegionBackend> DefaultBackend();

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_BACKEND_H_
