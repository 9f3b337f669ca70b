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
  // A mat-vec is conv2d with a 1x1 kernel on a 1x1 image (x as the
  // channels) and spmm_t with x as one row; both must match the dense
  // product.
  Rng rng(6);
  Tensor dense(Shape{8, 10});
  dense.fill_uniform(rng, -1.0F, 1.0F);
  // Sparsify half.
  for (int64_t i = 0; i < dense.numel(); i += 2) dense.at(i) = 0.0F;
  const Csr csr = Csr::from_dense(dense);

  std::vector<float> x(10);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i) * 0.1F;
  const Tensor y = csr.conv2d(Tensor(Shape{1, 10, 1, 1}, x), 1, 1, 0);
  const Tensor yt = csr.spmm_t(Tensor(Shape{1, 10}, x));
  ASSERT_EQ(y.shape(), (Shape{1, 8, 1, 1}));
  ASSERT_EQ(yt.shape(), (Shape{1, 8}));
  for (int64_t r = 0; r < 8; ++r) {
    double expect = 0.0;
    for (int64_t c = 0; c < 10; ++c) {
      expect += static_cast<double>(dense.at(r, c)) * x[static_cast<std::size_t>(c)];
    }
    EXPECT_NEAR(y.at(r), expect, 1e-4);
    EXPECT_NEAR(yt.at(r), expect, 1e-4);
  }
}

TEST(CsrTest, MatvecSizeMismatchThrows) {
  const Csr csr = Csr::from_dense(Tensor(Shape{2, 3}, 1.0F));
  EXPECT_THROW((void)csr.conv2d(Tensor(Shape{1, 4, 1, 1}), 1, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)csr.spmm_t(Tensor(Shape{1, 4})), std::invalid_argument);
}

TEST(CsrTest, EmptyMatrixHandled) {
  const Csr csr = Csr::from_dense(Tensor(Shape{3, 3}));
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_DOUBLE_EQ(csr.sparsity(), 1.0);
  for (const Tensor& y : {csr.conv2d(Tensor(Shape{1, 3, 1, 1}, 1.0F), 1, 1, 0),
                          csr.spmm_t(Tensor(Shape{1, 3}, 1.0F))}) {
    ASSERT_EQ(y.numel(), 3);
    for (int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y.at(i), 0.0F);
  }
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

TEST(CsrTest, KeepsEveryNonzeroEntry) {
  Tensor dense(Shape{2, 3}, std::vector<float>{0.5F, 1e-3F, -1e-3F,  //
                                               -0.5F, 0.0F, 2e-2F});
  // Every nonzero stays, however tiny; only exact zeros are dropped.
  // The runtime's kAuto sparsity count uses the same |w| > 0 test.
  EXPECT_EQ(Csr::from_dense(dense).nnz(), 5);
}

}  // namespace
}  // namespace ndsnn::sparse
