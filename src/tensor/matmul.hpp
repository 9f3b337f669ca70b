// Dense GEMM kernels.
//
// matmul:      C[M,N]  = A[M,K]  * B[K,N]
// matmul_tn:   C[M,N]  = Aᵀ (A is [K,M]) * B[K,N]
// matmul_nt:   C[M,N]  = A[M,K] * Bᵀ (B is [N,K])
//
// Scalar references: matmul and matmul_tn are i-k-j axpy loops (float
// chains, pruned zero weights skipped); matmul_nt is a per-output gather
// whose dot product runs in a double chain over ascending k, rounded to
// float once and added to C.
//
// matmul and matmul_nt (the two kernels the inference runtime's dense
// fallback ops run, and the conv forward / weight gradient of training)
// take a kernel tier (resolved via util::simd::resolve). The
// kAvx2 bodies keep each output's rounding sequence, so results are
// bitwise identical across tiers:
// - matmul: explicit mul+add float chains, 4 weights per pass over C.
// - matmul_nt: a k-blocked, register-tiled kernel. Per block of 128
//   k-columns it converts the A rows to double once, then transposes
//   each 16-row tile of B into a cache-resident double panel and holds
//   2 rows x 16 columns of double accumulators in registers across the
//   block. Every output's chain still visits k in ascending order. It
//   uses FMA, which is exact here: a float x float product fits a
//   double's 53-bit mantissa, so fma(a, b, acc) rounds once, just like
//   the scalar `acc += double(a) * b`.
// - matmul_nt_masked_acc: the same double chains for the kept entries
//   only (training's masked weight gradient of Conv2d).
// Both matmul_nt bodies run behind NtChains, which carries the double
// chains across calls, so a caller can feed k in blocks (the conv weight
// gradient of conv_gemm.hpp feeds one staged patch block at a time) and
// still get every entry's single rounding.
// matmul_tn (training-only, off the inference hot path) stays scalar.
//
// The accumulating GEMMs take an optional util::ThreadPool: with one,
// they split the rows of C into ranges, one per lane, and each entry
// keeps the chain it has inline, so the result is bitwise the serial
// one. Null (the default, and what every plan op passes) runs inline.
#pragma once

#include <algorithm>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::tensor {

[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            util::simd::Tier tier = util::simd::Tier::kAuto);
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b,
                               util::simd::Tier tier = util::simd::Tier::kAuto);

/// Multiply-adds per lane below which a GEMM runs inline. Waking a pool's
/// lanes took ~20 us on a 4-vCPU Xeon (a 56 us loop ran in 34 us over 4
/// lanes), about as long as 64 K scalar multiply-adds.
inline constexpr int64_t kGemmGrainMacs = 64 * 1024;

/// C += A * B (accumulating variant used by BPTT weight-gradient sums).
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c,
                util::simd::Tier tier = util::simd::Tier::kAuto,
                util::ThreadPool* pool = nullptr);
/// matmul_acc with B given by its rows: C [M, n] += A [M, K] * B [K, n],
/// where row kk of B is b_rows[kk][0, n) and rows of C are `ldc` floats
/// apart. Every output gets matmul_acc's rounding sequence.
void matmul_acc_rows(const Tensor& a, const float* const* b_rows, float* c, int64_t ldc,
                     int64_t n, util::simd::Tier tier = util::simd::Tier::kAuto);
/// C += Aᵀ * B
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c,
                   util::ThreadPool* pool = nullptr);
/// C += A * Bᵀ
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c,
                   util::simd::Tier tier = util::simd::Tier::kAuto,
                   util::ThreadPool* pool = nullptr);
/// matmul_nt_acc at the entries of C whose `keep` byte (row-major, C's
/// shape) is nonzero; the other entries of C are not touched. Each kept
/// entry gets matmul_nt_acc's double chain over ascending k, so it is
/// bitwise that kernel's, on either tier. The AVX2 body runs 4 rows of
/// A per lane group and skips every (column, 4-row group) with no kept
/// entry, so its work follows the kept fraction; at high kept fractions
/// the dense kernel is faster.
void matmul_nt_masked_acc(const Tensor& a, const Tensor& b, const uint8_t* keep, Tensor& c,
                          util::simd::Tier tier = util::simd::Tier::kAuto,
                          util::ThreadPool* pool = nullptr);

/// The rows of a GEMM operand whose columns lie in runs of `seg`: column
/// kk of row r is at data[(kk / seg) * seg_stride + r * ld + kk % seg].
/// A row-major [m, k] matrix is {data, k, k, 0}. The [N, F, OH, OW]
/// output gradient of a conv, read as F rows of N*OH*OW columns (sample
/// by sample), is {data, OH*OW, OH*OW, F*OH*OW}.
struct SegmentedRows {
  const float* data = nullptr;
  int64_t ld = 0, seg = 1, seg_stride = 0;

  /// Calls fn(offset, src, len) for the runs of row r's columns [k0, k0 +
  /// kb), ascending: columns k0 + offset + t are src[t], t < len.
  template <class Fn>
  void for_each_run(int64_t r, int64_t k0, int64_t kb, Fn&& fn) const {
    for (int64_t off = 0; off < kb;) {
      const int64_t col = k0 + off;
      const int64_t in_seg = col % seg;
      const int64_t len = std::min(seg - in_seg, kb - off);
      fn(off, data + (col / seg) * seg_stride + r * ld + in_seg, len);
      off += len;
    }
  }
};

/// C [m, n] += A * Bᵀ with k fed in consecutive blocks: add() continues
/// every entry's double chain over the next block, finish() rounds each
/// chain to float once and adds it to C. Every entry is bitwise
/// matmul_nt_acc's however k is split, on either tier. With a `keep` mask
/// (row-major bytes of C's layout, which must outlive the chains) only
/// the kept entries are computed and added: matmul_nt_masked_acc's. C
/// and keep have rows `ld` apart (ld >= n; 0 means n), so the chains of
/// a block of columns of a larger C run on their own.
class NtChains {
 public:
  NtChains(int64_t m, int64_t n, const uint8_t* keep,
           util::simd::Tier tier = util::simd::Tier::kAuto, int64_t ld = 0);
  /// The next kb columns of k: A's from `a` (its columns [0, kb)), B's
  /// row j from b_rows[j][0, kb).
  void add(const SegmentedRows& a, const float* const* b_rows, int64_t kb);
  /// c [m, n] (rows ld apart) += every (kept) chain, rounded to float.
  void finish(float* c) const;

 private:
  int64_t m_, n_, ld_;
  const uint8_t* keep_;
  bool avx2_;
  int64_t ld_acc_ = 0;  // row stride of acc_ (all but the AVX2 masked body)
  // AVX2 masked body: the (B row, 4-row group of A) pairs with a kept
  // entry, ascending; acc_ holds 4 chains per pair.
  std::vector<int64_t> item_col_, item_group_;
  std::vector<double> acc_;
};

}  // namespace ndsnn::tensor
