// Event-driven gather/scatter kernels vs naive dense references.
//
// spmv_gather runs on the *transposed* weight structure (Wᵀ), so these
// tests pin three properties: (1) transposed() round-trips exactly,
// (2) gathering only the nonzero entries of x reproduces the full
// dense-activation product bitwise (skipped zero terms are exact
// no-ops), and (3) scatter_row matches a per-row dense reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../testing_env.hpp"
#include "sparse/csr.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

/// Random [rows, cols] weights with roughly `sparsity` zeros.
Tensor random_sparse(int64_t rows, int64_t cols, double sparsity, Rng& rng) {
  Tensor w(Shape{rows, cols});
  w.fill_uniform(rng, -1.0F, 1.0F);
  for (int64_t i = 0; i < w.numel(); ++i) {
    if (rng.uniform01() < sparsity) w.at(i) = 0.0F;
  }
  return w;
}

/// Random vector with roughly `rate` nonzero entries (spike-like).
std::vector<float> random_sparse_vec(int64_t n, double rate, Rng& rng) {
  std::vector<float> x(static_cast<std::size_t>(n), 0.0F);
  for (auto& v : x) {
    if (rng.uniform01() < rate) v = rng.bernoulli(0.5) ? 1.0F : 0.5F;
  }
  return x;
}

std::vector<int32_t> active_indices(const std::vector<float>& x) {
  std::vector<int32_t> active;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] != 0.0F) active.push_back(static_cast<int32_t>(j));
  }
  return active;
}

TEST(SpmvGatherTest, CsrTransposedRoundTrips) {
  Rng rng(difftest::env_seed() ^ 0x7A11ULL);
  for (const auto& dims : {std::pair<int64_t, int64_t>{7, 13}, {16, 16}, {1, 9}, {9, 1}}) {
    const Tensor w = random_sparse(dims.first, dims.second, 0.7, rng);
    const Csr csr = Csr::from_dense(w);
    const Csr t = csr.transposed();
    EXPECT_EQ(t.rows(), csr.cols());
    EXPECT_EQ(t.cols(), csr.rows());
    EXPECT_EQ(t.nnz(), csr.nnz());
    const Tensor back = t.transposed().to_dense();
    for (int64_t i = 0; i < w.numel(); ++i) {
      ASSERT_EQ(back.at(i), csr.to_dense().at(i)) << "flat " << i;
    }
    // Transposed rows must keep ascending column order (the gather
    // kernels rely on it for the bitwise accumulation contract).
    for (int64_t r = 0; r < t.rows(); ++r) {
      for (int64_t k = t.row_ptr()[static_cast<std::size_t>(r)] + 1;
           k < t.row_ptr()[static_cast<std::size_t>(r) + 1]; ++k) {
        ASSERT_LT(t.col_idx()[static_cast<std::size_t>(k - 1)],
                  t.col_idx()[static_cast<std::size_t>(k)]);
      }
    }
  }
}

TEST(SpmvGatherTest, CsrGatherMatchesSpmmTBitwise) {
  Rng rng(difftest::env_seed() ^ 0x6A7EULL);
  for (const double weight_sparsity : {0.0, 0.5, 0.9}) {
    for (const double rate : {0.0, 0.1, 0.5, 1.0}) {
      const int64_t out = 17, in = 29;
      const Tensor w = random_sparse(out, in, weight_sparsity, rng);
      const Csr csr = Csr::from_dense(w);
      const Csr csr_t = csr.transposed();
      const std::vector<float> x = random_sparse_vec(in, rate, rng);
      const auto active = active_indices(x);

      // Dense-activation reference: one-row spmm_t.
      Tensor xrow(Shape{1, in});
      for (int64_t j = 0; j < in; ++j) xrow.at(j) = x[static_cast<std::size_t>(j)];
      const Tensor want = csr.spmm_t(xrow);

      std::vector<double> acc(static_cast<std::size_t>(out), 0.0);
      csr_t.spmv_gather(x.data(), active.data(), static_cast<int64_t>(active.size()),
                        acc.data());
      for (int64_t r = 0; r < out; ++r) {
        ASSERT_EQ(static_cast<float>(acc[static_cast<std::size_t>(r)]), want.at(r))
            << "ws=" << weight_sparsity << " rate=" << rate << " out " << r;
      }
    }
  }
}

TEST(SpmvGatherTest, CsrGatherEmptyActiveListIsZero) {
  Rng rng(difftest::env_seed() ^ 0xE3ULL);
  const Tensor w = random_sparse(5, 8, 0.3, rng);
  const Csr csr_t = Csr::from_dense(w).transposed();
  const std::vector<float> x(8, 0.0F);
  std::vector<double> acc(5, 0.0);
  csr_t.spmv_gather(x.data(), nullptr, 0, acc.data());
  for (const double v : acc) EXPECT_EQ(v, 0.0);
}

TEST(SpmvGatherTest, CsrScatterRowMatchesDenseReference) {
  Rng rng(difftest::env_seed() ^ 0x5CA7ULL);
  const int64_t rows = 11, cols = 6;
  const Tensor w = random_sparse(rows, cols, 0.4, rng);
  const Csr csr = Csr::from_dense(w);
  for (const int64_t stride : {int64_t{1}, int64_t{3}}) {
    for (int64_t r = 0; r < rows; ++r) {
      const float x = 0.75F;
      std::vector<float> got(static_cast<std::size_t>(cols * stride), 0.0F);
      std::vector<float> want = got;
      csr.scatter_row(r, x, got.data(), stride);
      for (int64_t c = 0; c < cols; ++c) {
        if (w.at(r, c) != 0.0F) want[static_cast<std::size_t>(c * stride)] = w.at(r, c) * x;
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i], want[i]) << "row " << r << " stride " << stride << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace ndsnn::sparse
