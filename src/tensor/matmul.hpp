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
// - matmul_nt: a k-blocked, register-tiled kernel. It transposes 128
//   k-columns of 16 B rows at a time into a cache-resident double panel
//   and holds 2 rows x 16 columns of double accumulators in registers
//   across the block, carrying them to the next block in a small buffer.
//   Every output's chain still visits k in ascending order. It uses
//   FMA, which is exact here: a float x float product fits a double's
//   53-bit mantissa, so fma(a, b, acc) rounds once, just like the
//   scalar `acc += double(a) * b`.
// - matmul_nt_masked_acc: the same double chains for the kept entries
//   only (training's masked weight gradient of Conv2d).
// matmul_tn (training-only, off the inference hot path) stays scalar.
#pragma once

#include "tensor/tensor.hpp"
#include "util/cpuinfo.hpp"

namespace ndsnn::tensor {

[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b,
                            util::simd::Tier tier = util::simd::Tier::kAuto);
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b,
                               util::simd::Tier tier = util::simd::Tier::kAuto);

/// C += A * B (accumulating variant used by BPTT weight-gradient sums).
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c,
                util::simd::Tier tier = util::simd::Tier::kAuto);
/// matmul_acc on blocks of larger row-major matrices: C [M, n] += A [M, K]
/// * B [K, n], where consecutive rows of B are `ldb` floats apart and of
/// C `ldc` apart. Every output gets matmul_acc's rounding sequence.
void matmul_acc_block(const Tensor& a, const float* b, int64_t ldb, float* c, int64_t ldc,
                      int64_t n, util::simd::Tier tier = util::simd::Tier::kAuto);
/// C += Aᵀ * B
void matmul_tn_acc(const Tensor& a, const Tensor& b, Tensor& c);
/// C += A * Bᵀ
void matmul_nt_acc(const Tensor& a, const Tensor& b, Tensor& c,
                   util::simd::Tier tier = util::simd::Tier::kAuto);
/// matmul_nt_acc at the entries of C whose `keep` byte (row-major, C's
/// shape) is nonzero; the other entries of C are not touched. Each kept
/// entry gets matmul_nt_acc's double chain over ascending k, so it is
/// bitwise that kernel's, on either tier. The AVX2 body runs 4 rows of
/// A per lane group and skips every (column, 4-row group) with no kept
/// entry, so its work follows the kept fraction; at high kept fractions
/// the dense kernel is faster.
void matmul_nt_masked_acc(const Tensor& a, const Tensor& b, const uint8_t* keep, Tensor& c,
                          util::simd::Tier tier = util::simd::Tier::kAuto);

}  // namespace ndsnn::tensor
