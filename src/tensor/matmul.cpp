#include "tensor/matmul.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

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
/// C[m, n] += A[m, k] * B[k, n], with B's rows at b_rows and C's rows ldc
/// apart.
void gemm_acc(const float* pa, const float* const* b_rows, float* pc, int64_t ldc, int64_t m,
              int64_t k, int64_t n, util::simd::Tier tier) {
  if (util::simd::resolve(tier) == util::simd::Tier::kAvx2 && simd::built_with_avx2() &&
      n >= 8) {
    simd::matmul_f32_avx2(pa, b_rows, m, k, n, pc, ldc);
    return;
  }
  // i-k-j ordering: unit-stride inner loop over B and C rows.
  for (int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * ldc;
    const float* arow = pa + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.0F) continue;  // sparse weights: skip pruned entries
      const float* brow = b_rows[kk];
      for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

/// Rows of C per lane range for a GEMM doing `row_macs` multiply-adds
/// per row of C.
int64_t row_grain(int64_t row_macs) {
  return std::max<int64_t>(1, kGemmGrainMacs / std::max<int64_t>(row_macs, 1));
}

/// Pointers to the rows of a row-major matrix, `ld` floats apart.
std::vector<const float*> row_pointers(const float* data, int64_t rows, int64_t ld) {
  std::vector<const float*> out(static_cast<std::size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) out[static_cast<std::size_t>(r)] = data + r * ld;
  return out;
}
}  // namespace

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c, util::simd::Tier tier,
                util::ThreadPool* pool) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument("matmul_acc: shape mismatch A" + a.shape().str() + " B" +
                                b.shape().str() + " C" + c.shape().str());
  }
  const std::vector<const float*> rows = row_pointers(b.data(), k, n);
  util::ThreadPool::for_ranges(pool, m, row_grain(k * n), [&](int64_t i0, int64_t i1) {
    gemm_acc(a.data() + i0 * k, rows.data(), c.data() + i0 * n, n, i1 - i0, k, n, tier);
  });
}

void matmul_acc_rows(const Tensor& a, const float* const* b_rows, float* c, int64_t ldc,
                     int64_t n, util::simd::Tier tier) {
  check_rank2(a, "A");
  if (n < 0 || ldc < n) throw std::invalid_argument("matmul_acc_rows: ldc must cover n columns");
  gemm_acc(a.data(), b_rows, c, ldc, a.dim(0), a.dim(1), n, tier);
}

Tensor matmul(const Tensor& a, const Tensor& b, util::simd::Tier tier) {
  Tensor c(Shape{a.dim(0), b.dim(1)});
  matmul_acc(a, b, c, tier);
  return c;
}

void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c, util::ThreadPool* pool) {
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
  util::ThreadPool::for_ranges(pool, m, row_grain(k * n), [&](int64_t i0, int64_t i1) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* arow = pa + kk * m;
      const float* brow = pb + kk * n;
      for (int64_t i = i0; i < i1; ++i) {
        const float aval = arow[i];
        if (aval == 0.0F) continue;
        float* crow = pc + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
      }
    }
  });
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  Tensor c(Shape{a.dim(1), b.dim(1)});
  matmul_tn_acc(a, b, c);
  return c;
}

NtChains::NtChains(int64_t m, int64_t n, const uint8_t* keep, util::simd::Tier tier, int64_t ld)
    : m_(m),
      n_(n),
      ld_(ld == 0 ? n : ld),
      keep_(keep),
      avx2_(util::simd::resolve(tier) == util::simd::Tier::kAvx2 && simd::built_with_avx2()) {
  if (avx2_ && keep_ != nullptr) {
    // Work items of the AVX2 masked body: (B row j, 4-row group of A)
    // pairs with a kept entry, in ascending (j, group) order.
    for (int64_t j = 0; j < n_; ++j) {
      for (int64_t g = 0; g < m_; g += 4) {
        bool any = false;
        for (int64_t r = g; r < std::min(g + 4, m_); ++r) any = any || keep_[r * ld_ + j] != 0;
        if (!any) continue;
        item_col_.push_back(j);
        item_group_.push_back(g);
      }
    }
    acc_.assign(item_col_.size() * 4, 0.0);
    return;
  }
  // The AVX2 dense body writes whole 16-column register tiles.
  ld_acc_ = avx2_ ? (n_ + 15) / 16 * 16 : n_;
  acc_.assign(static_cast<std::size_t>(m_ * ld_acc_), 0.0);
}

void NtChains::add(const SegmentedRows& a, const float* const* b_rows, int64_t kb) {
  if (m_ == 0 || n_ == 0 || kb == 0) return;
  if (avx2_ && keep_ != nullptr) {
    simd::matmul_nt_masked_f32_avx2(a, b_rows, m_, kb, item_col_.data(), item_group_.data(),
                                    static_cast<int64_t>(item_col_.size()), acc_.data());
    return;
  }
  if (avx2_) {
    simd::matmul_nt_f32_avx2(a, b_rows, m_, kb, n_, acc_.data());
    return;
  }
  for (int64_t i = 0; i < m_; ++i) {
    for (int64_t j = 0; j < n_; ++j) {
      if (keep_ != nullptr && keep_[i * ld_ + j] == 0) continue;
      const float* brow = b_rows[j];
      double acc = acc_[static_cast<std::size_t>(i * ld_acc_ + j)];
      a.for_each_run(i, 0, kb, [&](int64_t off, const float* src, int64_t len) {
        for (int64_t t = 0; t < len; ++t) acc += static_cast<double>(src[t]) * brow[off + t];
      });
      acc_[static_cast<std::size_t>(i * ld_acc_ + j)] = acc;
    }
  }
}

void NtChains::finish(float* c) const {
  if (avx2_ && keep_ != nullptr) {
    for (std::size_t t = 0; t < item_col_.size(); ++t) {
      const int64_t j = item_col_[t];
      const int64_t g = item_group_[t];
      for (int64_t r = g; r < std::min(g + 4, m_); ++r) {
        if (keep_[r * ld_ + j] != 0) {
          c[r * ld_ + j] += static_cast<float>(acc_[4 * t + static_cast<std::size_t>(r - g)]);
        }
      }
    }
    return;
  }
  for (int64_t i = 0; i < m_; ++i) {
    for (int64_t j = 0; j < n_; ++j) {
      if (keep_ != nullptr && keep_[i * ld_ + j] == 0) continue;
      c[i * ld_ + j] += static_cast<float>(acc_[static_cast<std::size_t>(i * ld_acc_ + j)]);
    }
  }
}

namespace {
/// C += A * Bᵀ over all of k, at keep's entries when keep is given.
void nt_acc(const char* name, const Tensor& a, const Tensor& b, const uint8_t* keep, Tensor& c,
            util::simd::Tier tier, util::ThreadPool* pool) {
  check_rank2(a, "A");
  check_rank2(b, "B");
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k || c.dim(0) != m || c.dim(1) != n) {
    throw std::invalid_argument(std::string(name) + ": shape mismatch A" + a.shape().str() +
                                " B" + b.shape().str() + " C" + c.shape().str());
  }
  const std::vector<const float*> rows = row_pointers(b.data(), n, k);
  util::ThreadPool::for_ranges(pool, m, row_grain(k * n), [&](int64_t i0, int64_t i1) {
    NtChains chains(i1 - i0, n, keep == nullptr ? nullptr : keep + i0 * n, tier);
    chains.add(SegmentedRows{a.data() + i0 * k, k, k, 0}, rows.data(), k);
    chains.finish(c.data() + i0 * n);
  });
}
}  // namespace

void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c, util::simd::Tier tier,
                   util::ThreadPool* pool) {
  nt_acc("matmul_nt_acc", a, b, nullptr, c, tier, pool);
}

Tensor matmul_nt(const Tensor& a, const Tensor& b, util::simd::Tier tier) {
  Tensor c(Shape{a.dim(0), b.dim(0)});
  matmul_nt_acc(a, b, c, tier);
  return c;
}

void matmul_nt_masked_acc(const Tensor& a, const Tensor& b, const uint8_t* keep, Tensor& c,
                          util::simd::Tier tier, util::ThreadPool* pool) {
  if (keep == nullptr) throw std::invalid_argument("matmul_nt_masked_acc: keep is null");
  nt_acc("matmul_nt_masked_acc", a, b, keep, c, tier, pool);
}

}  // namespace ndsnn::tensor
