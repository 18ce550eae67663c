#include "common/reciprocal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace tsp {
namespace {

// The stripe of a 32-bit bucket index: exact against the divide for
// every divisor shape (1, powers of two and their neighbours, the
// paper's 1000, the largest 32-bit values) at the quotient boundaries
// and at random indices.
TEST(ReciprocalTest, MatchesDivisionForThirtyTwoBitIndices) {
  const std::uint64_t kMax = (std::uint64_t{1} << 32) - 1;
  std::vector<std::uint64_t> divisors = {1,    2,     3,         7,
                                         1000, 1023,  1024,      1025,
                                         4096, 65537, kMax / 2,  kMax / 2 + 1,
                                         kMax, kMax + 1};
  Random rng(17);
  for (int i = 0; i < 64; ++i) divisors.push_back(1 + rng.Uniform(kMax));
  for (const std::uint64_t d : divisors) {
    const Reciprocal reciprocal(d);
    std::vector<std::uint64_t> indices = {0, 1, kMax, kMax - 1};
    for (std::uint64_t q = 1; q <= 3 && q * d <= kMax; ++q) {
      indices.push_back(q * d - 1);
      indices.push_back(q * d);
      if (q * d < kMax) indices.push_back(q * d + 1);
    }
    for (int i = 0; i < 256; ++i) indices.push_back(rng.Uniform(kMax + 1));
    for (const std::uint64_t n : indices) {
      ASSERT_EQ(reciprocal.Divide(n), n / d) << n << " / " << d;
    }
  }
  EXPECT_EQ(Reciprocal().Divide(kMax), kMax) << "the default divides by 1";
}

}  // namespace
}  // namespace tsp
