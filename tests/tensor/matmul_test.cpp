#include "tensor/matmul.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/random.hpp"

namespace ndsnn::tensor {
namespace {

TEST(MatmulTest, Known2x2) {
  Tensor a(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b(Shape{2, 2}, std::vector<float>{5, 6, 7, 8});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0F);
}

TEST(MatmulTest, RectangularShapes) {
  Tensor a(Shape{2, 3}, std::vector<float>{1, 0, 2, 0, 1, 1});
  Tensor b(Shape{3, 1}, std::vector<float>{1, 2, 3});
  const Tensor c = matmul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 1}));
  EXPECT_FLOAT_EQ(c.at(0, 0), 7.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 5.0F);
}

TEST(MatmulTest, MismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 3});
  EXPECT_THROW((void)matmul(a, b), std::invalid_argument);
}

TEST(MatmulTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(11);
  Tensor a(Shape{4, 5});
  Tensor b(Shape{4, 6});
  a.fill_uniform(rng, -1.0F, 1.0F);
  b.fill_uniform(rng, -1.0F, 1.0F);

  // at = transpose(a): [5, 4]
  Tensor at(Shape{5, 4});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 5; ++j) at.at(j, i) = a.at(i, j);
  }
  const Tensor expect = matmul(at, b);       // [5, 6]
  const Tensor got = matmul_tn(a, b);        // Aᵀ * B
  ASSERT_EQ(got.shape(), expect.shape());
  for (int64_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got.at(i), expect.at(i), 1e-5F);
}

TEST(MatmulTest, NtVariantAgreesWithExplicitTranspose) {
  Rng rng(12);
  Tensor a(Shape{3, 7});
  Tensor b(Shape{4, 7});
  a.fill_uniform(rng, -1.0F, 1.0F);
  b.fill_uniform(rng, -1.0F, 1.0F);

  Tensor bt(Shape{7, 4});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 7; ++j) bt.at(j, i) = b.at(i, j);
  }
  const Tensor expect = matmul(a, bt);  // [3, 4]
  const Tensor got = matmul_nt(a, b);
  ASSERT_EQ(got.shape(), expect.shape());
  for (int64_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got.at(i), expect.at(i), 1e-5F);
}

TEST(MatmulTest, AccumulatingVariantAddsIntoC) {
  Tensor a(Shape{1, 2}, std::vector<float>{1, 1});
  Tensor b(Shape{2, 1}, std::vector<float>{2, 3});
  Tensor c(Shape{1, 1}, std::vector<float>{10});
  matmul_acc(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 15.0F);
}

TEST(MatmulTest, SparseZeroRowsSkippedCorrectly) {
  // The kernel short-circuits zero A entries; verify results are exact.
  Tensor a(Shape{2, 3}, std::vector<float>{0, 0, 0, 1, 0, 2});
  Tensor b(Shape{3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 0.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 11.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 14.0F);
}

TEST(MatmulTest, IdentityIsNoop) {
  Rng rng(13);
  Tensor a(Shape{5, 5});
  a.fill_uniform(rng, -1.0F, 1.0F);
  Tensor eye(Shape{5, 5});
  for (int64_t i = 0; i < 5; ++i) eye.at(i, i) = 1.0F;
  const Tensor c = matmul(a, eye);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(c.at(i), a.at(i));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

// matmul_nt_masked_acc must give every kept entry matmul_nt_acc's bits
// and leave every other entry of C as it was, on both tiers: row counts
// off the 4-row lane groups, column counts off the 16-column tiles, k
// across several panel blocks and off the 4-wide unroll, and masks with
// empty and full rows and columns.
TEST(MaskedMatmulTest, NtMaskedEqualsDenseAtKeptEntries) {
  struct Case {
    int64_t m, k, n;
  };
  const std::vector<Case> cases = {{1, 1, 1},  {3, 5, 7},    {6, 67, 75},
                                   {16, 300, 150}, {17, 1030, 18}, {5, 4, 33}};
  const std::vector<double> densities = {0.0, 0.1, 0.35, 1.0};
  for (const util::simd::Tier tier : {util::simd::Tier::kScalar, util::simd::Tier::kAvx2}) {
    for (const Case& cs : cases) {
      for (const double density : densities) {
        SCOPED_TRACE(testing::Message() << util::simd::name(tier) << " m=" << cs.m << " k="
                                        << cs.k << " n=" << cs.n << " density=" << density);
        Rng rng(static_cast<uint64_t>(cs.m * 1000 + cs.k * 10 + cs.n));
        Tensor a(Shape{cs.m, cs.k}), b(Shape{cs.n, cs.k}), c0(Shape{cs.m, cs.n});
        a.fill_uniform(rng, -1.0F, 1.0F);
        b.fill_uniform(rng, -1.0F, 1.0F);
        c0.fill_uniform(rng, -1.0F, 1.0F);
        std::vector<uint8_t> keep(static_cast<std::size_t>(cs.m * cs.n));
        for (auto& bit : keep) bit = rng.uniform(0.0F, 1.0F) < density ? 1 : 0;
        if (cs.m > 2 && density > 0.0) {
          // One empty row and one full row.
          for (int64_t j = 0; j < cs.n; ++j) {
            keep[static_cast<std::size_t>(j)] = 0;
            keep[static_cast<std::size_t>(cs.n + j)] = 1;
          }
        }
        if (cs.n > 2) {
          for (int64_t i = 0; i < cs.m; ++i) keep[static_cast<std::size_t>(i * cs.n + 1)] = 0;
        }
        Tensor dense = c0;
        matmul_nt_acc(a, b, dense, tier);
        Tensor masked = c0;
        matmul_nt_masked_acc(a, b, keep.data(), masked, tier);
        for (int64_t i = 0; i < cs.m * cs.n; ++i) {
          const float want = keep[static_cast<std::size_t>(i)] != 0 ? dense.at(i) : c0.at(i);
          ASSERT_TRUE(same_bits(masked.at(i), want))
              << "entry " << i << ": " << masked.at(i) << " vs " << want;
        }
      }
    }
  }
}

TEST(MaskedMatmulTest, NtMaskedRejectsShapeMismatch) {
  Tensor a(Shape{2, 3}), b(Shape{4, 2}), c(Shape{2, 4});
  std::vector<uint8_t> keep(8, 1);
  EXPECT_THROW(matmul_nt_masked_acc(a, b, keep.data(), c), std::invalid_argument);
}

}  // namespace
}  // namespace ndsnn::tensor
