#include "tensor/random.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::tensor {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, Uniform01Range) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntRangeAndCoverage) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10U);
}

TEST(RngTest, UniformIntRejectsNonPositive) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform_int(-3), std::invalid_argument);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(21);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int64_t> v(50);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int64_t>(i);
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_NE(v, sorted);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // Parent and child should not track each other.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(SplitMix64Test, KnownSequenceIsStable) {
  SplitMix64 sm(0);
  const uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(sm.next(), first);
}

// fill_normal draws its uniforms in stream order and transforms the
// Box-Muller pairs on the lanes of a pool: on 1..4 lanes, inline, and
// through Tensor::fill_normal, the values and the stream state after are
// bitwise those of n normal() calls, for odd and even n, with and
// without a normal cached from an earlier call.
TEST(RngTest, FillNormalOnPoolsMatchesNormalCallsBitwise) {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (int64_t lanes = 1; lanes <= 4; ++lanes) {
    pools.push_back(std::make_unique<util::ThreadPool>(lanes));
  }
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{33333}, int64_t{40000}}) {
    for (const bool cached : {false, true}) {
      Rng ref(77);
      if (cached) (void)ref.normal();
      Rng start = ref;
      std::vector<float> want(static_cast<std::size_t>(n));
      for (float& x : want) x = 0.5F + 2.0F * ref.normal();
      const float next = ref.normal();
      for (const auto& pool : pools) {
        Rng rng = start;
        std::vector<float> got(static_cast<std::size_t>(n), -1.0F);
        rng.fill_normal(got.data(), n, 0.5F, 2.0F, pool.get());
        EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
            << n << " values, cached " << cached << ", "
            << (pool ? pool->lanes() : 0) << " lanes";
        EXPECT_EQ(rng.normal(), next) << "stream state after " << n << " values";
      }
      if (n == 0) continue;  // a Shape has no zero dims
      Rng rng = start;
      Tensor t(Shape{n});
      t.fill_normal(rng, 0.5F, 2.0F);
      EXPECT_EQ(std::memcmp(t.data(), want.data(), want.size() * sizeof(float)), 0);
      EXPECT_EQ(rng.normal(), next);
    }
  }
}

}  // namespace
}  // namespace ndsnn::tensor
