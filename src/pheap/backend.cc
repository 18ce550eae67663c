#include "pheap/backend.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace tsp::pheap {
namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

std::string Hex(std::uintptr_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIxPTR, v);
  return buf;
}

/// One fixed-address mmap, shared by every backend. `fd` < 0 maps
/// anonymous memory. Failure names the occupying mapping when there is
/// one.
StatusOr<void*> MapRangeAt(int fd, std::size_t size, std::uintptr_t addr,
                           int prot, int extra_flags) {
  void* want = reinterpret_cast<void*>(addr);
  int flags = extra_flags;
  if (fd < 0) flags |= MAP_ANONYMOUS;
#ifdef MAP_FIXED_NOREPLACE
  flags |= MAP_FIXED_NOREPLACE;
  void* got = mmap(want, size, prot, flags, fd, 0);
  if (got == MAP_FAILED) {
    const std::string conflict = DescribeMappingConflict(addr, size);
    std::string msg = "cannot map region at its fixed address " + Hex(addr) +
                      ": " + std::strerror(errno);
    if (!conflict.empty()) msg += "; " + conflict;
    return Status::FailedPrecondition(std::move(msg));
  }
#else
  void* got = mmap(want, size, prot, flags, fd, 0);
  if (got == MAP_FAILED) return ErrnoStatus("mmap");
#endif
  if (got != want) {
    munmap(got, size);
    const std::string conflict = DescribeMappingConflict(addr, size);
    std::string msg = "kernel mapped the region away from " + Hex(addr) +
                      "; the fixed range is occupied";
    if (!conflict.empty()) msg += ": " + conflict;
    return Status::FailedPrecondition(std::move(msg));
  }
  return got;
}

}  // namespace

std::string DescribeMappingConflict(std::uintptr_t addr, std::size_t size) {
  std::ifstream maps("/proc/self/maps");
  if (!maps.is_open()) return "";
  const std::uintptr_t lo = addr;
  const std::uintptr_t hi = addr + size;
  std::string description;
  int overlaps = 0;
  std::string line;
  while (std::getline(maps, line)) {
    std::uintptr_t start = 0;
    std::uintptr_t end = 0;
    const char* text = line.c_str();
    char* after = nullptr;
    start = std::strtoull(text, &after, 16);
    if (after == nullptr || *after != '-') continue;
    end = std::strtoull(after + 1, &after, 16);
    if (start >= hi || end <= lo) continue;
    // The pathname (or [heap]/[stack]/anon) is the last column.
    std::string what = "anonymous mapping";
    const std::size_t space = line.find_last_of(' ');
    if (space != std::string::npos && space + 1 < line.size()) {
      what = line.substr(space + 1);
    }
    ++overlaps;
    if (overlaps == 1) {
      description = "requested range [" + Hex(lo) + "," + Hex(hi) +
                    ") overlaps " + what + " mapped at [" + Hex(start) + "," +
                    Hex(end) + ")";
    }
  }
  if (overlaps > 1) {
    description += " (and " + std::to_string(overlaps - 1) + " more)";
  }
  return description;
}

// --- PosixFileBackend ---

StatusOr<void*> PosixFileBackend::CreateAndMap(const std::string& path,
                                               std::size_t size,
                                               std::uintptr_t addr) {
  const int fd = open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    if (errno == EEXIST) {
      return Status::AlreadyExists("region file exists: " + path);
    }
    return ErrnoStatus("open " + path);
  }
  if (ftruncate(fd, static_cast<off_t>(size)) != 0) {
    const Status s = ErrnoStatus("ftruncate " + path);
    close(fd);
    unlink(path.c_str());
    return s;
  }
  auto mapped = MapRangeAt(fd, size, addr, PROT_READ | PROT_WRITE,
                           MAP_SHARED);
  close(fd);  // The mapping keeps the file alive.
  if (!mapped.ok()) unlink(path.c_str());
  return mapped;
}

Status PosixFileBackend::PeekHeader(const std::string& path, void* out,
                                    std::size_t n,
                                    std::uint64_t* store_size) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no region file: " + path);
    return ErrnoStatus("open " + path);
  }
  struct stat st;
  if (fstat(fd, &st) != 0) {
    const Status s = ErrnoStatus("fstat " + path);
    close(fd);
    return s;
  }
  *store_size = static_cast<std::uint64_t>(st.st_size);
  std::memset(out, 0, n);
  const std::size_t want =
      n < static_cast<std::size_t>(st.st_size)
          ? n
          : static_cast<std::size_t>(st.st_size);
  std::size_t done = 0;
  while (done < want) {
    const ssize_t got = pread(fd, static_cast<char*>(out) + done,
                              want - done, static_cast<off_t>(done));
    if (got < 0) {
      const Status s = ErrnoStatus("pread " + path);
      close(fd);
      return s;
    }
    if (got == 0) break;
    done += static_cast<std::size_t>(got);
  }
  close(fd);
  return Status::OK();
}

StatusOr<void*> PosixFileBackend::MapExisting(const std::string& path,
                                              std::size_t size,
                                              std::uintptr_t addr,
                                              bool read_only) {
  const int fd = open(path.c_str(), read_only ? O_RDONLY : O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no region file: " + path);
    return ErrnoStatus("open " + path);
  }
  auto mapped = read_only
                    ? MapRangeAt(fd, size, addr, PROT_READ, MAP_PRIVATE)
                    : MapRangeAt(fd, size, addr, PROT_READ | PROT_WRITE,
                                 MAP_SHARED);
  close(fd);
  return mapped;
}

void PosixFileBackend::Unmap(void* base, std::size_t size) {
  munmap(base, size);
}

Status PosixFileBackend::Sync(void* base, std::size_t size) {
  if (msync(base, size, MS_SYNC) != 0) return ErrnoStatus("msync");
  return Status::OK();
}

Status PosixFileBackend::Remove(const std::string& path) {
  if (unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("unlink " + path);
  }
  return Status::OK();
}

// --- AnonTestBackend ---

StatusOr<void*> AnonTestBackend::CreateAndMap(const std::string& path,
                                              std::size_t size,
                                              std::uintptr_t addr) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stores_.count(path) > 0) {
    return Status::AlreadyExists("anon-test store exists: " + path);
  }
  TSP_ASSIGN_OR_RETURN(
      void* base,
      MapRangeAt(-1, size, addr, PROT_READ | PROT_WRITE, MAP_PRIVATE));
  Store& store = stores_[path];
  store.size = size;
  store.mapped_base = base;
  return base;
}

Status AnonTestBackend::PeekHeader(const std::string& path, void* out,
                                   std::size_t n, std::uint64_t* store_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = stores_.find(path);
  if (it == stores_.end()) {
    return Status::NotFound("no anon-test store: " + path);
  }
  const Store& store = it->second;
  *store_size = store.size;
  std::memset(out, 0, n);
  const std::size_t want = n < store.size ? n : store.size;
  if (store.mapped_base != nullptr) {
    std::memcpy(out, store.mapped_base, want);
  } else {
    std::memcpy(out, store.image.data(), want);
  }
  return Status::OK();
}

StatusOr<void*> AnonTestBackend::MapExisting(const std::string& path,
                                             std::size_t size,
                                             std::uintptr_t addr,
                                             bool read_only) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = stores_.find(path);
  if (it == stores_.end()) {
    return Status::NotFound("no anon-test store: " + path);
  }
  Store& store = it->second;
  if (store.mapped_base != nullptr) {
    return Status::FailedPrecondition(
        "anon-test store is already mapped in this process: " + path);
  }
  if (size != store.size) {
    return Status::InvalidArgument("anon-test store size mismatch");
  }
  TSP_ASSIGN_OR_RETURN(
      void* base,
      MapRangeAt(-1, size, addr, PROT_READ | PROT_WRITE, MAP_PRIVATE));
  std::memcpy(base, store.image.data(), store.image.size());
  if (read_only) {
    // A read-only view never writes the image back (see Unmap), so the
    // page protection is only advisory here.
    mprotect(base, size, PROT_READ);
    return base;
  }
  store.mapped_base = base;
  return base;
}

void AnonTestBackend::Unmap(void* base, std::size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [path, store] : stores_) {
    (void)path;
    if (store.mapped_base == base) {
      // Unmapping *is* this backend's persistence: the image survives
      // for the next MapExisting, clean shutdown or not.
      store.image.assign(static_cast<unsigned char*>(base),
                         static_cast<unsigned char*>(base) + size);
      store.mapped_base = nullptr;
      break;
    }
  }
  munmap(base, size);
}

Status AnonTestBackend::Sync(void* base, std::size_t size) {
  (void)base;
  (void)size;
  return Status::OK();  // nothing below the mapping to sync to
}

Status AnonTestBackend::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  stores_.erase(path);
  return Status::OK();
}

// --- SimNvmShadowBackend ---

StatusOr<void*> SimNvmShadowBackend::CreateAndMap(const std::string& path,
                                                  std::size_t size,
                                                  std::uintptr_t addr) {
  TSP_ASSIGN_OR_RETURN(void* base,
                       PosixFileBackend::CreateAndMap(path, size, addr));
  shadow_ = std::make_unique<simnvm::SimNvm>(size, options_.cache_capacity,
                                             options_.eviction_seed);
  region_base_ = base;
  region_size_ = size;
  return base;
}

StatusOr<void*> SimNvmShadowBackend::MapExisting(const std::string& path,
                                                 std::size_t size,
                                                 std::uintptr_t addr,
                                                 bool read_only) {
  TSP_ASSIGN_OR_RETURN(
      void* base, PosixFileBackend::MapExisting(path, size, addr, read_only));
  if (!read_only) {
    shadow_ = std::make_unique<simnvm::SimNvm>(size, options_.cache_capacity,
                                               options_.eviction_seed);
    region_base_ = base;
    region_size_ = size;
    // Seed the shadow NVM with the region's current durable contents so
    // crash images start from reality, not zeroes.
    Status mirrored = MirrorRegion();
    if (!mirrored.ok()) return mirrored;
    shadow_->FlushRange(0, size);
    shadow_->ResetStats();
  }
  return base;
}

Status SimNvmShadowBackend::MirrorRange(std::uint64_t offset, std::size_t n) {
  if (shadow_ == nullptr || region_base_ == nullptr) {
    return Status::FailedPrecondition("no region mapped to mirror");
  }
  if (offset + n > region_size_) {
    return Status::OutOfRange("mirror range exceeds the region");
  }
  // 8-byte store granularity, matching SimNvm's program view.
  const std::uint64_t first = offset & ~7ULL;
  const std::uint64_t last = (offset + n + 7ULL) & ~7ULL;
  const char* base = static_cast<const char*>(region_base_);
  for (std::uint64_t at = first; at < last && at + 8 <= region_size_;
       at += 8) {
    std::uint64_t word;
    std::memcpy(&word, base + at, 8);
    shadow_->Store(at, word);
  }
  return Status::OK();
}

Status SimNvmShadowBackend::Sync(void* base, std::size_t size) {
  TSP_RETURN_IF_ERROR(PosixFileBackend::Sync(base, size));
  // A sync is an explicit durability point: in the shadow model that is
  // "mirror everything, then flush every line".
  TSP_RETURN_IF_ERROR(MirrorRegion());
  shadow_->FlushRange(0, region_size_);
  return Status::OK();
}

std::shared_ptr<RegionBackend> DefaultBackend() {
  static std::shared_ptr<RegionBackend> backend =
      std::make_shared<PosixFileBackend>();
  return backend;
}

}  // namespace tsp::pheap
