#include "sparse/csr.hpp"

#include <gtest/gtest.h>

#include "tensor/random.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

TEST(CsrTest, RoundTripDense) {
  Tensor dense(Shape{3, 4}, std::vector<float>{0, 1, 0, 2,  //
                                               0, 0, 0, 0,  //
                                               3, 0, 4, 0});
  const Csr csr = Csr::from_dense(dense);
  EXPECT_EQ(csr.nnz(), 4);
  EXPECT_NEAR(csr.sparsity(), 8.0 / 12.0, 1e-12);
  const Tensor back = csr.to_dense();
  for (int64_t i = 0; i < dense.numel(); ++i) EXPECT_EQ(back.at(i), dense.at(i));
}

TEST(CsrTest, RowPtrStructure) {
  Tensor dense(Shape{2, 2}, std::vector<float>{1, 0, 0, 2});
  const Csr csr = Csr::from_dense(dense);
  ASSERT_EQ(csr.row_ptr().size(), 3U);
  EXPECT_EQ(csr.row_ptr()[0], 0);
  EXPECT_EQ(csr.row_ptr()[1], 1);
  EXPECT_EQ(csr.row_ptr()[2], 2);
  EXPECT_EQ(csr.col_idx()[0], 0);
  EXPECT_EQ(csr.col_idx()[1], 1);
}

TEST(CsrTest, MatvecMatchesDense) {
  Rng rng(6);
  Tensor dense(Shape{8, 10});
  dense.fill_uniform(rng, -1.0F, 1.0F);
  // Sparsify half.
  for (int64_t i = 0; i < dense.numel(); i += 2) dense.at(i) = 0.0F;
  const Csr csr = Csr::from_dense(dense);

  std::vector<float> x(10);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i) * 0.1F;
  const auto y = csr.matvec(x);
  ASSERT_EQ(y.size(), 8U);
  for (int64_t r = 0; r < 8; ++r) {
    double expect = 0.0;
    for (int64_t c = 0; c < 10; ++c) {
      expect += static_cast<double>(dense.at(r, c)) * x[static_cast<std::size_t>(c)];
    }
    EXPECT_NEAR(y[static_cast<std::size_t>(r)], expect, 1e-4);
  }
}

TEST(CsrTest, MatvecSizeMismatchThrows) {
  const Csr csr = Csr::from_dense(Tensor(Shape{2, 3}, 1.0F));
  EXPECT_THROW((void)csr.matvec(std::vector<float>(4)), std::invalid_argument);
}

TEST(CsrTest, EmptyMatrixHandled) {
  const Csr csr = Csr::from_dense(Tensor(Shape{3, 3}));
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_DOUBLE_EQ(csr.sparsity(), 1.0);
  const auto y = csr.matvec(std::vector<float>(3, 1.0F));
  for (const float v : y) EXPECT_EQ(v, 0.0F);
}

TEST(CsrTest, StorageBitsAccounting) {
  // 4 nnz, 3 rows, 8-bit values, 16-bit indices:
  // 4*(8+16) + (3+1)*16 = 96 + 64 = 160.
  Tensor dense(Shape{3, 4}, std::vector<float>{0, 1, 0, 2, 0, 0, 0, 0, 3, 0, 4, 0});
  const Csr csr = Csr::from_dense(dense);
  EXPECT_EQ(csr.storage_bits(8, 16), 160);
}

TEST(CsrTest, HigherSparsityUsesFewerBits) {
  Rng rng(7);
  Tensor a(Shape{20, 20});
  a.fill_uniform(rng, 0.5F, 1.0F);
  Tensor b = a;
  for (int64_t i = 0; i < b.numel(); ++i) {
    if (i % 10 != 0) b.at(i) = 0.0F;  // 90% sparse
  }
  EXPECT_LT(Csr::from_dense(b).storage_bits(32, 16),
            Csr::from_dense(a).storage_bits(32, 16));
}

TEST(CsrTest, RejectsNonMatrix) {
  EXPECT_THROW((void)Csr::from_dense(Tensor(Shape{2, 2, 2})), std::invalid_argument);
}

TEST(CsrTest, ThresholdDropsTinyEntries) {
  Tensor dense(Shape{2, 3}, std::vector<float>{0.5F, 1e-3F, -1e-3F,  //
                                               -0.5F, 0.0F, 2e-2F});
  // Default threshold 0 keeps every nonzero, however tiny.
  EXPECT_EQ(Csr::from_dense(dense).nnz(), 5);
  // |x| > 1e-2 keeps only the deliberate weights.
  const Csr csr = Csr::from_dense(dense, 1e-2F);
  EXPECT_EQ(csr.nnz(), 3);
  const Tensor back = csr.to_dense();
  EXPECT_EQ(back.at(0, 0), 0.5F);
  EXPECT_EQ(back.at(0, 1), 0.0F);
  EXPECT_EQ(back.at(0, 2), 0.0F);
  EXPECT_EQ(back.at(1, 0), -0.5F);
  EXPECT_EQ(back.at(1, 2), 2e-2F);
  // The threshold is strict: entries exactly at it are dropped. This is
  // pinned behavior — the runtime's kAuto sparsity count uses the same
  // |w| > threshold test.
  EXPECT_EQ(Csr::from_dense(dense, 0.5F).nnz(), 0);
  // Negative thresholds are rejected.
  EXPECT_THROW((void)Csr::from_dense(dense, -1.0F), std::invalid_argument);
}

}  // namespace
}  // namespace ndsnn::sparse
