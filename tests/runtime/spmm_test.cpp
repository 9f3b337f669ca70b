// CSR spmm / spmm_t equivalence against the dense GEMM kernels
// and a naive reference on random masked matrices, plus the degenerate
// shapes real plans hit (the runtime's correctness cornerstone).
#include <gtest/gtest.h>

#include "sparse/csr.hpp"
#include "sparse/mask.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "testing.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor random_masked(Shape shape, double sparsity, Rng& rng) {
  Tensor dense(shape);
  dense.fill_uniform(rng, -1.0F, 1.0F);
  const auto active =
      static_cast<int64_t>(static_cast<double>(dense.numel()) * (1.0 - sparsity));
  const Mask mask(shape, active, rng);
  mask.apply(dense);
  return dense;
}

/// Naive triple-loop references (double accumulation), deliberately
/// independent of tensor::matmul so kernel and oracle share no code.
Tensor naive_ab(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c(Shape{m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i, kk)) * static_cast<double>(b.at(kk, j));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor naive_abt(const Tensor& b, const Tensor& a) {  // B * Aᵀ
  const int64_t m = b.dim(0), k = b.dim(1), r = a.dim(0);
  Tensor c(Shape{m, r});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(b.at(i, kk)) * static_cast<double>(a.at(j, kk));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

void expect_near_all(const Tensor& got, const Tensor& want, double tol,
                     const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(got.at(i), want.at(i), tol) << context << " i=" << i;
  }
}

TEST(SpmmTest, MatchesDenseMatmulAcrossSparsities) {
  Rng rng(11);
  for (const double sparsity : {0.0, 0.5, 0.9, 0.99}) {
    const Tensor a = random_masked(Shape{17, 23}, sparsity, rng);
    Tensor b(Shape{23, 9});
    b.fill_uniform(rng, -1.0F, 1.0F);

    const Tensor expect = tensor::matmul(a, b);
    const Tensor got = Csr::from_dense(a).spmm(b);
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < expect.numel(); ++i) {
      EXPECT_NEAR(got.at(i), expect.at(i), 1e-5) << "sparsity=" << sparsity << " i=" << i;
    }
  }
}

TEST(SpmmTest, TransposedMatchesDenseMatmulNt) {
  Rng rng(12);
  for (const double sparsity : {0.0, 0.5, 0.95}) {
    const Tensor w = random_masked(Shape{31, 19}, sparsity, rng);  // [out, in]
    Tensor x(Shape{7, 19});                                       // [M, in]
    x.fill_uniform(rng, -1.0F, 1.0F);

    const Tensor expect = tensor::matmul_nt(x, w);
    const Tensor got = Csr::from_dense(w).spmm_t(x);
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < expect.numel(); ++i) {
      EXPECT_NEAR(got.at(i), expect.at(i), 1e-5) << "sparsity=" << sparsity << " i=" << i;
    }
  }
}

TEST(SpmmTest, EmptyMatrixYieldsZeros) {
  const Csr csr = Csr::from_dense(Tensor(Shape{4, 6}));
  Tensor b(Shape{6, 3}, 1.0F);
  const Tensor c = csr.spmm(b);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c.at(i), 0.0F);
  Tensor x(Shape{5, 6}, 1.0F);
  const Tensor ct = csr.spmm_t(x);
  for (int64_t i = 0; i < ct.numel(); ++i) EXPECT_EQ(ct.at(i), 0.0F);
}

TEST(SpmmTest, ShapeMismatchThrows) {
  const Csr csr = Csr::from_dense(Tensor(Shape{4, 6}, 1.0F));
  EXPECT_THROW((void)csr.spmm(Tensor(Shape{5, 3})), std::invalid_argument);
  EXPECT_THROW((void)csr.spmm_t(Tensor(Shape{3, 5})), std::invalid_argument);
  EXPECT_THROW((void)csr.spmm(Tensor(Shape{6})), std::invalid_argument);
}

TEST(SpmmTest, FromWeightsReshapesConvKernels) {
  Rng rng(13);
  Tensor w(Shape{8, 3, 5, 5});
  w.fill_uniform(rng, -1.0F, 1.0F);
  const Csr csr = Csr::from_weights(w);
  EXPECT_EQ(csr.rows(), 8);
  EXPECT_EQ(csr.cols(), 75);
  EXPECT_EQ(csr.nnz(), w.numel());
  EXPECT_THROW((void)Csr::from_weights(Tensor(Shape{5})), std::invalid_argument);
}

TEST(SpmmTest, EmptyRowsProduceZeroOutputRows) {
  // Rows 1 and 3 are entirely zero: CSR gets empty row extents.
  Tensor a(Shape{4, 6});
  for (int64_t c = 0; c < 6; ++c) {
    a.at(0, c) = static_cast<float>(c + 1);
    a.at(2, c) = -static_cast<float>(c + 1);
  }
  Tensor b(Shape{6, 3}, 0.5F);
  const Tensor want = naive_ab(a, b);
  expect_near_all(Csr::from_dense(a).spmm(b), want, 1e-5, "csr empty rows");
  Tensor x(Shape{2, 6}, 0.25F);
  const Tensor want_t = naive_abt(x, a);
  expect_near_all(Csr::from_dense(a).spmm_t(x), want_t, 1e-5, "csr-t empty rows");
}

TEST(SpmmTest, SingleRowAndSingleColumnShapes) {
  Rng rng(41);
  for (const auto& shape : {Shape{1, 9}, Shape{9, 1}, Shape{1, 1}}) {
    const Tensor a = random_masked(shape, 0.3, rng);
    Tensor b(Shape{a.dim(1), 2});
    b.fill_uniform(rng, -1.0F, 1.0F);
    Tensor x(Shape{3, a.dim(1)});
    x.fill_uniform(rng, -1.0F, 1.0F);
    const std::string ctx = "shape " + shape.str();
    expect_near_all(Csr::from_dense(a).spmm(b), naive_ab(a, b), 1e-5, "csr " + ctx);
    expect_near_all(Csr::from_dense(a).spmm_t(x), naive_abt(x, a), 1e-5, "csr-t " + ctx);
  }
}

TEST(SpmmTest, AllZeroMatrixAllKernels) {
  const Tensor a(Shape{5, 7});
  Tensor b(Shape{7, 2}, 1.0F);
  Tensor x(Shape{3, 7}, 1.0F);
  for (const Tensor& out : {Csr::from_dense(a).spmm(b), Csr::from_dense(a).spmm_t(x)}) {
    for (int64_t i = 0; i < out.numel(); ++i) ASSERT_EQ(out.at(i), 0.0F);
  }
}

TEST(SpmmTest, FuzzAgainstNaiveReference) {
  // Randomized sweep over shapes and sparsities for both kernel
  // variants. Seeded via NDSNN_TEST_SEED.
  Rng rng(difftest::env_seed() ^ 0x5B3CC461ULL);
  const int rounds = difftest::env_int("NDSNN_FUZZ_ROUNDS", 40);
  for (int round = 0; round < rounds; ++round) {
    const int64_t rows = 1 + rng.uniform_int(40);
    const int64_t cols = 1 + rng.uniform_int(40);
    const int64_t n = 1 + rng.uniform_int(12);
    const int64_t m = 1 + rng.uniform_int(6);
    const double sparsity = rng.uniform01();
    const std::string ctx = "round " + std::to_string(round) + ": " +
                            std::to_string(rows) + "x" + std::to_string(cols) +
                            " sparsity=" + std::to_string(sparsity);
    const Tensor a = random_masked(Shape{rows, cols}, sparsity, rng);
    Tensor b(Shape{cols, n});
    b.fill_uniform(rng, -1.0F, 1.0F);
    Tensor x(Shape{m, cols});
    x.fill_uniform(rng, -1.0F, 1.0F);

    const Tensor want = naive_ab(a, b);
    const Tensor want_t = naive_abt(x, a);
    const Csr csr = Csr::from_dense(a);
    expect_near_all(csr.spmm(b), want, 1e-4, "csr spmm " + ctx);
    expect_near_all(csr.spmm_t(x), want_t, 1e-4, "csr spmm_t " + ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ndsnn::sparse
