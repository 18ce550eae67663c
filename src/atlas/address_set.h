// Copyright 2026 The TSP Authors.
// Per-thread open-addressing set of store targets, used to log only the
// *first* store to each location within an outermost critical section
// (Atlas logs "before allowing a store ... to alter a persistent heap
// location for the first time in an OCS").
//
// Keys are cache-line indices (region offset >> 6) with an 8-bit
// presence mask of the line's 8-byte words, so adjacent-field stores
// inside one line probe the same slot and the table holds one entry per
// touched line instead of one per touched word. Coverage is tracked at
// word granularity: a set mask bit asserts the *entire* aligned 8-byte
// word was captured in an undo record, which is why the runtime
// decomposes every store into full aligned words before logging (a
// sub-word capture under a word-granular mask would elide bytes that
// were never saved).
//
// Duplicate logging would still be correct (undo records are applied in
// reverse global order, so the oldest value wins), but first-store
// filtering is part of the logging cost profile the paper measures.

#ifndef TSP_ATLAS_ADDRESS_SET_H_
#define TSP_ATLAS_ADDRESS_SET_H_

#include <cstdint>
#include <vector>

namespace tsp::atlas {

/// Not thread-safe; each AtlasThread owns one. Clearing between OCSes is
/// O(1) via epoch stamping.
class AddressSet {
 public:
  static constexpr std::size_t kInitialCapacity = 256;

  /// Quiet (small) epochs before an inflated table retires back to
  /// kInitialCapacity: one oversized OCS must not permanently inflate
  /// every later OCS's per-store probe footprint.
  static constexpr std::uint64_t kShrinkAfterQuietEpochs = 16;

  AddressSet() : slots_(kInitialCapacity) {}

  /// Starts a new OCS: logically empties the set. Retires an inflated
  /// table once kShrinkAfterQuietEpochs consecutive epochs stayed within
  /// the initial capacity's load limit.
  void NewEpoch() {
    if (slots_.size() > kInitialCapacity) {
      if ((size_ + 1) * 4 < kInitialCapacity * 3) {
        if (++quiet_epochs_ >= kShrinkAfterQuietEpochs) {
          slots_.assign(kInitialCapacity, Slot{});
          slots_.shrink_to_fit();
          quiet_epochs_ = 0;
          ++shrinks_;
        }
      } else {
        quiet_epochs_ = 0;
      }
    }
    ++epoch_;
    size_ = 0;
  }

  /// Marks the aligned 8-byte word at region offset `word_offset`
  /// (multiple of 8) covered. Returns true if it was not covered yet
  /// (the caller must log it).
  bool CoverWord(std::uint64_t word_offset) {
    Slot& slot = FindLine(word_offset >> 6);
    const std::uint8_t bit =
        static_cast<std::uint8_t>(1u << ((word_offset >> 3) & 7));
    const bool newly_covered = (slot.mask & bit) == 0;
    slot.mask |= bit;
    return newly_covered;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t shrinks() const { return shrinks_; }

 private:
  struct Slot {
    std::uint64_t line = 0;
    std::uint64_t epoch = 0;  // 0 = never used (epoch_ starts at 1)
    std::uint8_t mask = 0;    // words of the line already captured
  };

  static std::uint64_t Hash(std::uint64_t line) {
    // Fibonacci hashing on the line index.
    return line * 0x9e3779b97f4a7c15ULL;
  }

  /// Finds (or inserts empty) the slot for `line`.
  Slot& FindLine(std::uint64_t line) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) Grow();
    const std::uint64_t mask = slots_.size() - 1;
    std::uint64_t index = Hash(line) & mask;
    for (;;) {
      Slot& slot = slots_[index];
      if (slot.epoch != epoch_) {  // empty in this epoch
        slot.line = line;
        slot.epoch = epoch_;
        slot.mask = 0;
        ++size_;
        return slot;
      }
      if (slot.line == line) return slot;
      index = (index + 1) & mask;
    }
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::uint64_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.epoch != epoch_) continue;
      std::uint64_t index = Hash(slot.line) & mask;
      while (slots_[index].epoch == epoch_) index = (index + 1) & mask;
      slots_[index] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::uint64_t epoch_ = 1;
  std::size_t size_ = 0;
  std::uint64_t quiet_epochs_ = 0;
  std::uint64_t shrinks_ = 0;
};

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_ADDRESS_SET_H_
