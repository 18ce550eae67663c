// Copyright 2026 The TSP Authors.
// MappedRegion: a persistent region mapped at a fixed virtual address.
//
// This is the TSP substrate for process crashes: per POSIX (paper
// Appendix A), every store to a MAP_SHARED mapping issued before a crash
// remains visible to subsequent readers of the file, with no flushing or
// msync during failure-free operation.
//
// Where the bytes live is a RegionBackend (backend.h); where the bytes
// are mapped is an AddressSlotAllocator slot (address_slots.h): the
// lowest free one on create, the recorded one on every open.
// MappedRegion itself owns the format: header validation,
// generation/clean-shutdown bookkeeping, and slot revalidation on
// reopen.

#ifndef TSP_PHEAP_REGION_H_
#define TSP_PHEAP_REGION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "pheap/address_slots.h"
#include "pheap/backend.h"
#include "pheap/layout.h"

namespace tsp::pheap {

/// Options for creating a new region file.
struct RegionOptions {
  /// Total file/mapping size in bytes. Rounded up to the page size.
  std::size_t size = 256 * 1024 * 1024;
  /// Bytes reserved between the header and the arena for the resilience
  /// runtime (undo logs, lock words).
  std::size_t runtime_area_size = 16 * 1024 * 1024;
  /// Storage mechanics; null uses the process-wide PosixFileBackend.
  std::shared_ptr<RegionBackend> backend;
};

/// A mapped persistent region. Move-only; unmaps on destruction
/// *without* marking a clean shutdown (destruction is
/// indistinguishable from a crash by design — marking clean is an
/// explicit act, see MarkCleanShutdown).
class MappedRegion {
 public:
  ~MappedRegion();

  MappedRegion(const MappedRegion&) = delete;
  MappedRegion& operator=(const MappedRegion&) = delete;

  /// Creates a new region file at `path` (fails if it already exists),
  /// maps it at the lowest free address slot, and formats the header.
  static StatusOr<std::unique_ptr<MappedRegion>> Create(
      const std::string& path, const RegionOptions& options);

  /// Opens an existing region file and maps it at its recorded slot.
  /// Returns kCorruption for files that are not TSP regions, and
  /// kFailedPrecondition if the recorded slot is outside this build's
  /// window or the recorded base is not that slot's address here, or
  /// if the slot is held or its range occupied (no silent clobber).
  /// Attach and OpenReadOnly apply the same placement check.
  static StatusOr<std::unique_ptr<MappedRegion>> Open(
      const std::string& path,
      std::shared_ptr<RegionBackend> backend = nullptr);

  /// Cooperative open: maps read-write like Open but performs no header
  /// mutation — no generation bump, no clean-shutdown clearing — so a
  /// second process can join a domain that another process has open
  /// without perturbing the owner's crash bookkeeping. An attached
  /// session reports opened_after_crash() == false (crash-vs-clean is
  /// the *opening* session's question; an attacher recovers dead peers
  /// via Atlas slot harvesting instead) and must never MarkCleanShutdown
  /// (the clean flag belongs to whoever cleared it).
  static StatusOr<std::unique_ptr<MappedRegion>> Attach(
      const std::string& path,
      std::shared_ptr<RegionBackend> backend = nullptr);

  /// Read-only open for diagnostic tooling: maps PROT_READ and performs
  /// no header mutation whatsoever (no generation bump, no
  /// clean-shutdown clearing), so inspection never perturbs recovery
  /// state. Mutating methods are fatal on such regions.
  static StatusOr<std::unique_ptr<MappedRegion>> OpenReadOnly(
      const std::string& path,
      std::shared_ptr<RegionBackend> backend = nullptr);

  /// Open if the file exists, Create otherwise.
  static StatusOr<std::unique_ptr<MappedRegion>> OpenOrCreate(
      const std::string& path, const RegionOptions& options);

  /// Region base address (== header()->base_address).
  void* base() const { return base_; }
  std::size_t size() const { return size_; }
  RegionHeader* header() const { return reinterpret_cast<RegionHeader*>(base_); }
  const std::string& path() const { return path_; }

  /// The backend storing this region's bytes.
  RegionBackend* backend() const { return backend_.get(); }

  /// AddressSlotAllocator slot the region is mapped at. Writable
  /// regions hold it until destruction; read-only ones never reserve
  /// it.
  std::uint32_t address_slot() const { return slot_; }

  /// True iff the previous session did NOT mark a clean shutdown, i.e.
  /// this open constitutes crash recovery.
  bool opened_after_crash() const { return opened_after_crash_; }

  /// Declares recovery complete (rollback + GC done): the region is
  /// consistent again and runtimes may attach.
  void MarkRecovered() { opened_after_crash_ = false; }

  /// Converts between pointers into the region and byte offsets.
  std::uint64_t ToOffset(const void* p) const {
    return static_cast<std::uint64_t>(static_cast<const char*>(p) -
                                      static_cast<const char*>(base_));
  }
  void* FromOffset(std::uint64_t offset) const {
    return static_cast<char*>(base_) + offset;
  }
  bool Contains(const void* p) const {
    return p >= base_ && p < static_cast<const char*>(base_) + size_;
  }

  /// Synchronously writes all modified pages to the backing store
  /// (msync(MS_SYNC) for files). Not needed for process-crash
  /// tolerance; used by non-TSP plans that must reach block storage.
  Status SyncToBacking();

  /// Marks the clean-shutdown flag (and syncs it). Call before orderly
  /// process exit; skipping it simulates a crash.
  void MarkCleanShutdown();

  bool read_only() const { return read_only_; }

  /// True for regions opened via Attach (cooperative, non-owning).
  bool attached() const { return attached_; }

 private:
  static StatusOr<std::unique_ptr<MappedRegion>> OpenWritable(
      const std::string& path, std::shared_ptr<RegionBackend> backend,
      bool attach);

  /// Takes over the mapping, and the slot unless `read_only`.
  MappedRegion(std::string path, void* mapped_base, std::size_t mapped_size,
               std::shared_ptr<RegionBackend> backend, std::uint32_t slot,
               bool read_only)
      : path_(std::move(path)),
        base_(mapped_base),
        size_(mapped_size),
        backend_(std::move(backend)),
        slot_(slot),
        read_only_(read_only) {}

  std::string path_;
  void* base_ = nullptr;
  std::size_t size_ = 0;
  std::shared_ptr<RegionBackend> backend_;
  std::uint32_t slot_;
  bool read_only_;
  bool opened_after_crash_ = false;
  bool attached_ = false;
};

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_REGION_H_
