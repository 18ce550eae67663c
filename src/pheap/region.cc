#include "pheap/region.h"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <new>

#include "common/logging.h"
#include "pheap/sanitizer.h"

namespace tsp::pheap {
namespace {

std::size_t RoundUpToPage(std::size_t n) {
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return (n + page - 1) & ~(page - 1);
}

std::shared_ptr<RegionBackend> Resolve(std::shared_ptr<RegionBackend> b) {
  return b != nullptr ? std::move(b) : DefaultBackend();
}

/// Slots tried after the first one on create when a foreign mapping
/// occupies a free slot's range; each such slot is quarantined.
constexpr int kSlotRetries = 8;

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

/// Peeked header fields, copied out of the backing store before any
/// fixed-address mapping exists.
struct PeekedHeader {
  std::uint32_t slot;
  std::uint64_t base;
  std::uint64_t size;
};

/// Reads and validates the header of an existing region. Every open
/// applies the same checks, placement included: the recorded slot must
/// lie in this build's window and the recorded base must be that
/// slot's address here. So a header edited on disk, or a heap made by
/// a build with another slot window, is refused before anything is
/// mapped.
Status ReadHeader(RegionBackend* backend, const std::string& path,
                  PeekedHeader* out) {
  alignas(alignof(RegionHeader)) unsigned char buffer[kHeaderSize];
  std::uint64_t store_size = 0;
  TSP_RETURN_IF_ERROR(
      backend->PeekHeader(path, buffer, sizeof(buffer), &store_size));
  if (store_size < kHeaderSize) {
    return Status::Corruption("file too small to be a TSP region: " + path);
  }
  const auto* header = reinterpret_cast<const RegionHeader*>(buffer);
  if (header->magic != kRegionMagic) {
    return Status::Corruption("bad magic; not a TSP region: " + path);
  }
  if (header->version != kLayoutVersion) {
    return Status::Corruption("unsupported region layout version " +
                              std::to_string(header->version) +
                              " (this build reads version " +
                              std::to_string(kLayoutVersion) + ")");
  }
  if (header->region_size != store_size) {
    return Status::Corruption("region size mismatch with file size");
  }
  const std::uint32_t slot = header->address_slot;
  const bool in_window = slot < AddressSlotAllocator::kSlotCount;
  if (!in_window ||
      AddressSlotAllocator::AddressOf(slot) != header->base_address) {
    return Status::FailedPrecondition(
        "region header of " + path + " records base address " +
        Hex(header->base_address) + " at address slot " +
        std::to_string(slot) + ", but this build maps slot " +
        std::to_string(slot) + " at " +
        (in_window ? Hex(AddressSlotAllocator::AddressOf(slot))
                   : "no address (its window has " +
                         std::to_string(AddressSlotAllocator::kSlotCount) +
                         " slots from " +
                         Hex(AddressSlotAllocator::kSlotBase) + ")") +
        "; refusing to map a heap from another slot window (no silent "
        "clobber)");
  }
  out->slot = slot;
  out->base = header->base_address;
  out->size = header->region_size;
  return Status::OK();
}

}  // namespace

MappedRegion::~MappedRegion() {
  if (base_ != nullptr) {
    // Drop §4.1 exemptions pointing into this mapping: the address slot
    // may be reused by a later heap that is not non-blocking.
    TspSanitizer::ForgetRangesIn(base_, size_);
    backend_->Unmap(base_, size_);
  }
  if (!read_only_) {
    AddressSlotAllocator::Instance().Release(slot_);
  }
}

StatusOr<std::unique_ptr<MappedRegion>> MappedRegion::Create(
    const std::string& path, const RegionOptions& options) {
  std::shared_ptr<RegionBackend> backend = Resolve(options.backend);
  const std::size_t size = RoundUpToPage(options.size);
  const std::size_t runtime_size = RoundUpToPage(options.runtime_area_size);
  if (size < kHeaderSize + runtime_size + (1u << 20)) {
    return Status::InvalidArgument(
        "region size too small for header + runtime area + a usable arena");
  }

  // Walk free slots, quarantining any whose range a foreign mapping
  // occupies.
  AddressSlotAllocator& slots = AddressSlotAllocator::Instance();
  std::uint32_t slot = 0;
  void* mapped_base = nullptr;
  Status last_failure = Status::OK();
  for (int attempt = 0; attempt <= kSlotRetries; ++attempt) {
    auto acquired = slots.Acquire(size);
    if (!acquired.ok()) {
      return last_failure.ok() ? acquired.status() : last_failure;
    }
    slot = *acquired;
    auto mapped = backend->CreateAndMap(path, size,
                                        AddressSlotAllocator::AddressOf(slot));
    if (mapped.ok()) {
      mapped_base = *mapped;
      break;
    }
    slots.Release(slot);
    if (mapped.status().code() != StatusCode::kFailedPrecondition) {
      return mapped.status();  // not an address conflict: no retry
    }
    // Something foreign occupies this slot's range; never offer it
    // again in this process, then try the next one.
    slots.Quarantine(slot, size);
    last_failure = mapped.status();
  }
  if (mapped_base == nullptr) {
    return last_failure;
  }

  auto* header = new (mapped_base) RegionHeader();
  header->magic = kRegionMagic;
  header->version = kLayoutVersion;
  header->header_size = kHeaderSize;
  header->base_address = AddressSlotAllocator::AddressOf(slot);
  header->region_size = size;
  header->runtime_area_offset = kHeaderSize;
  header->runtime_area_size = runtime_size;
  header->arena_offset = kHeaderSize + runtime_size;
  header->arena_size = size - header->arena_offset;
  header->generation.store(1, std::memory_order_relaxed);
  header->clean_shutdown.store(0, std::memory_order_relaxed);
  header->address_slot = slot;
  header->root_offset.store(0, std::memory_order_relaxed);
  header->global_sequence.store(1, std::memory_order_relaxed);
  header->bump_offset.store(header->arena_offset, std::memory_order_relaxed);
  for (auto& list : header->free_lists) {
    list.head.store(0, std::memory_order_relaxed);
  }
  header->total_allocs.store(0, std::memory_order_relaxed);
  header->total_frees.store(0, std::memory_order_relaxed);

  return std::unique_ptr<MappedRegion>(new MappedRegion(
      path, mapped_base, size, std::move(backend), slot,
      /*read_only=*/false));
}

StatusOr<std::unique_ptr<MappedRegion>> MappedRegion::OpenWritable(
    const std::string& path, std::shared_ptr<RegionBackend> backend,
    bool attach) {
  PeekedHeader peeked;
  TSP_RETURN_IF_ERROR(ReadHeader(backend.get(), path, &peeked));
  AddressSlotAllocator& slots = AddressSlotAllocator::Instance();
  TSP_RETURN_IF_ERROR(slots.AcquireSpecific(peeked.slot, peeked.size));
  auto mapped = backend->MapExisting(path, peeked.size, peeked.base,
                                     /*read_only=*/false);
  if (!mapped.ok()) {
    slots.Release(peeked.slot);
    return mapped.status();
  }

  auto region = std::unique_ptr<MappedRegion>(
      new MappedRegion(path, *mapped, peeked.size, std::move(backend),
                       peeked.slot, /*read_only=*/false));
  RegionHeader* header = region->header();
  if (attach) {
    // Cooperative join: the crash/clean bookkeeping belongs to the
    // session that opened the domain; an attacher neither consumes the
    // clean flag nor bumps the generation (a bump would invalidate the
    // owner's live trace rings).
    region->attached_ = true;
    region->opened_after_crash_ = false;
  } else {
    region->opened_after_crash_ =
        header->clean_shutdown.load(std::memory_order_relaxed) == 0;
    header->clean_shutdown.store(0, std::memory_order_relaxed);
    header->generation.fetch_add(1, std::memory_order_relaxed);
  }
  return region;
}

StatusOr<std::unique_ptr<MappedRegion>> MappedRegion::Open(
    const std::string& path, std::shared_ptr<RegionBackend> backend_in) {
  return OpenWritable(path, Resolve(std::move(backend_in)),
                      /*attach=*/false);
}

StatusOr<std::unique_ptr<MappedRegion>> MappedRegion::Attach(
    const std::string& path, std::shared_ptr<RegionBackend> backend_in) {
  return OpenWritable(path, Resolve(std::move(backend_in)),
                      /*attach=*/true);
}

StatusOr<std::unique_ptr<MappedRegion>> MappedRegion::OpenOrCreate(
    const std::string& path, const RegionOptions& options) {
  auto opened = Open(path, options.backend);
  if (opened.ok() || opened.status().code() != StatusCode::kNotFound) {
    return opened;
  }
  return Create(path, options);
}

StatusOr<std::unique_ptr<MappedRegion>> MappedRegion::OpenReadOnly(
    const std::string& path, std::shared_ptr<RegionBackend> backend_in) {
  std::shared_ptr<RegionBackend> backend = Resolve(std::move(backend_in));
  PeekedHeader peeked;
  TSP_RETURN_IF_ERROR(ReadHeader(backend.get(), path, &peeked));
  // Diagnostics never reserve the slot: the mapping is private and
  // read-only, and a live writer in another process stays untouched.
  auto mapped = backend->MapExisting(path, peeked.size, peeked.base,
                                     /*read_only=*/true);
  if (!mapped.ok()) {
    return Status::FailedPrecondition(
        "cannot map read-only region at its fixed address: " +
        mapped.status().message());
  }
  auto region = std::unique_ptr<MappedRegion>(
      new MappedRegion(path, *mapped, peeked.size, std::move(backend),
                       peeked.slot, /*read_only=*/true));
  region->opened_after_crash_ =
      region->header()->clean_shutdown.load(std::memory_order_relaxed) == 0;
  return region;
}

Status MappedRegion::SyncToBacking() {
  TSP_CHECK(!read_only_) << "SyncToBacking on a read-only region";
  return backend_->Sync(base_, size_);
}

void MappedRegion::MarkCleanShutdown() {
  TSP_CHECK(!read_only_) << "MarkCleanShutdown on a read-only region";
  TSP_CHECK(!attached_)
      << "MarkCleanShutdown on an attached region: the clean flag belongs "
         "to the opening session (detach is always crash-equivalent)";
  header()->clean_shutdown.store(1, std::memory_order_release);
  // A clean shutdown is an explicit durability point even on
  // conventional hardware: push everything to the backing store.
  const Status synced = backend_->Sync(base_, size_);
  if (!synced.ok()) {
    TSP_LOG(WARNING) << "sync on clean shutdown failed: "
                     << synced.ToString();
  }
}

}  // namespace tsp::pheap
