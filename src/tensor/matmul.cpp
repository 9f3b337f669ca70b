#include "tensor/matmul.hpp"

#include <stdexcept>

#include "sparse/simd_kernels.hpp"

namespace ndsnn::tensor {

namespace simd = ndsnn::sparse::simd;

namespace {
void check_rank2(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string("matmul: ") + name + " must be rank-2, got " +
                                t.shape().str());
  }
}
}  // namespace

namespace {
/// C[m, n] += A[m, k] * B[k, n], with B and C rows ldb and ldc apart.
void gemm_acc(const float* pa, const float* pb, int64_t ldb, float* pc, int64_t ldc,
              int64_t m, int64_t k, int64_t n, util::simd::Tier tier) {
  if (util::simd::resolve(tier) == util::simd::Tier::kAvx2 && simd::built_with_avx2() &&
      n >= 8) {
    simd::matmul_f32_avx2(pa, pb, ldb, m, k, n, pc, ldc);
    return;
  }
  // i-k-j ordering: unit-stride inner loop over B and C rows.
  for (int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * ldc;
    const float* arow = pa + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.0F) continue;  // sparse weights: skip pruned entries
      const float* brow = pb + kk * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}
}  // namespace

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c, util::simd::Tier tier) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("matmul_acc: shape mismatch A" + a.shape().str() + " B" +
                                b.shape().str() + " C" + c.shape().str());
  }
  gemm_acc(a.data(), b.data(), n, c.data(), n, m, k, n, tier);
}

void matmul_acc_block(const Tensor& a, const float* b, int64_t ldb, float* c, int64_t ldc,
                      int64_t n, util::simd::Tier tier) {
  check_rank2(a, "A");
  if (n < 0 || ldb < n || ldc < n) {
    throw std::invalid_argument("matmul_acc_block: row strides must cover n columns");
  }
  gemm_acc(a.data(), b, ldb, c, ldc, a.dim(0), a.dim(1), n, tier);
}

Tensor matmul(const Tensor& a, const Tensor& b, util::simd::Tier tier) {
  Tensor c(Shape{a.dim(0), b.dim(1)});
  matmul_acc(a, b, c, tier);
  return c;
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("matmul_tn_acc: shape mismatch A" + a.shape().str() + " B" +
                                b.shape().str() + " C" + c.shape().str());
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float aval = arow[i];
      if (aval == 0.0F) continue;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.dim(1), b.dim(1)});
  matmul_tn_acc(a, b, c);
  return c;
}

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c, util::simd::Tier tier) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("matmul_nt_acc: shape mismatch A" + a.shape().str() + " B" +
                                b.shape().str() + " C" + c.shape().str());
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (util::simd::resolve(tier) == util::simd::Tier::kAvx2 && simd::built_with_avx2()) {
    simd::matmul_nt_f32_avx2(pa, pb, m, k, n, pc);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += static_cast<double>(arow[kk]) * brow[kk];
      crow[j] += static_cast<float>(acc);
    }
  }
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, util::simd::Tier tier) {
  Tensor c(Shape{a.dim(0), b.dim(0)});
  matmul_nt_acc(a, b, c, tier);
  return c;
}

void matmul_nt_masked_acc(const Tensor& a, const Tensor& b, const uint8_t* keep, Tensor& c,
                          util::simd::Tier tier) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n || keep == nullptr) {
    throw std::invalid_argument("matmul_nt_masked_acc: shape mismatch A" + a.shape().str() +
                                " B" + b.shape().str() + " C" + c.shape().str());
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (util::simd::resolve(tier) == util::simd::Tier::kAvx2 && simd::built_with_avx2()) {
    simd::matmul_nt_masked_f32_avx2(pa, pb, keep, m, k, n, pc);
    return;
  }
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      if (keep[i * n + j] == 0) continue;
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += static_cast<double>(arow[kk]) * brow[kk];
      pc[i * n + j] += static_cast<float>(acc);
    }
  }
}

}  // namespace ndsnn::tensor
