// Copyright 2026 The TSP Authors.
// Division by a divisor fixed at run time, without a divide instruction.

#ifndef TSP_COMMON_RECIPROCAL_H_
#define TSP_COMMON_RECIPROCAL_H_

#include <cstdint>

namespace tsp {

/// n / d for a divisor d fixed at construction, as one 64x64→128-bit
/// multiply instead of a 64-bit divide (tens of cycles). Exact for every
/// n < 2^32 and 1 <= d <= 2^32: with M = floor((2^64 - 1) / d) and
/// r = (2^64 - 1) mod d, floor((n + 1) * M / 2^64) falls short of
/// (n + 1) / d by (n + 1)(1 + r) / (d * 2^64), which is at most 1 / d
/// when n + 1 and 1 + r are both at most 2^32, so the floor is n / d.
class Reciprocal {
 public:
  Reciprocal() : Reciprocal(1) {}
  explicit Reciprocal(std::uint64_t divisor)
      : multiplier_(~std::uint64_t{0} / divisor) {}

  std::uint64_t Divide(std::uint64_t n) const {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(n + 1) * multiplier_) >> 64);
  }

 private:
  std::uint64_t multiplier_;
};

}  // namespace tsp

#endif  // TSP_COMMON_RECIPROCAL_H_
