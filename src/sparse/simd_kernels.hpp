// Internal declarations of the hand-written intrinsic kernel bodies
// (util::simd::Tier::kAvx2). Not part of the public sparse API — the
// dispatching drivers in csr.cpp / matmul.cpp are the only callers.
// Three kernels have AVX2 bodies: Csr::spmm_t (fp32, int8, int4),
// tensor::matmul and tensor::matmul_nt. Every other kernel (Csr::conv2d,
// the event gather/scatter) has one body, which the compiler
// autovectorizes under -march where it can.
//
// Contract: every fp32 body here computes the identical per-output
// accumulation sequence as its scalar reference (ascending nonzero /
// column order, explicit mul-then-add — never FMA — for the float
// chains, exact double products for the double chains), so results are
// bitwise identical across tiers. That only holds because the build
// pins -ffp-contract=off (see CMakeLists.txt): otherwise -O2 would
// contract the *scalar* float chains into FMAs these bodies deliberately
// avoid. A double chain of float x float products is the one place FMA
// is allowed: the product is exact in double, so fma(a, b, acc) and
// acc + a * b round identically (matmul_nt_f32_avx2 relies on this).
// Quantised bodies (i8/i4) have no bitwise contract and use FMA +
// reassociated accumulator chains freely.
//
// The batch-panel spmm_t bodies read B through its transpose
// bt = Bᵀ [cols x m] (row-major, row stride m): one weight broadcast
// then serves 8 batch lanes from a contiguous load. Callers build bt
// once per call (transpose_f32) before fanning the row ranges out to
// the pool.
//
// All bodies are compiled with __attribute__((target("avx2,fma"))) so
// a generic x86-64 build still links and runs — cpuinfo's detected()
// simply never selects the tier on hardware without AVX2. On non-x86
// builds the functions are stubbed out and built_with_avx2() is false,
// so every kernel runs its scalar reference body there.
#pragma once

#include <cstdint>

namespace ndsnn::sparse::simd {

/// True when this build contains the AVX2 intrinsic bodies (x86-64 with
/// a compiler supporting target attributes). Runtime capability is a
/// separate question — util::simd::detected() answers it.
bool built_with_avx2();

/// out[c * rows + r] = in[r * cols + c]. Plain strided copy (no FP
/// ops, trivially bitwise); exposed so the spmm_t drivers can build bt
/// in parallel column strips.
void transpose_f32(const float* in, int64_t rows, int64_t cols, float* out,
                   int64_t c0, int64_t c1);

/// fp32 Csr::spmm_t rows [r0, r1): cp[i * out_stride + r] =
/// float(sum_k (double)v_k * (double)bt[col_k * m + i]), 8 batch lanes
/// per pass in two 4-wide double chains.
void csr_spmm_t_f32_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                         const float* values, int64_t r0, int64_t r1,
                         const float* bt, int64_t m, int64_t out_stride,
                         float* cp);

/// Quantised symmetric (all zero-points 0) Csr::spmm_t. group_shift < 0:
/// per-row scales, scale[r] applied once per output. group_shift >= 0:
/// sub-row grouped plane (quant_group_size), scale[k >> group_shift]
/// folded into each code — the "SIMD kernels read group scales
/// natively" path.
void csr_spmm_t_i8_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                        const int8_t* q8, const float* scale, int group_shift,
                        int64_t r0, int64_t r1, const float* bt, int64_t m,
                        int64_t out_stride, float* cp);
void csr_spmm_t_i4_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                        const uint8_t* q4, const float* scale, int group_shift,
                        int64_t r0, int64_t r1, const float* bt, int64_t m,
                        int64_t out_stride, float* cp);

/// Dense matmul_nt rows [i0, i1) with B [n x k] row-major:
/// c[i, j] += float(double chain over ascending kk of a[i, kk] * b[j, kk]).
/// k-blocked and register-tiled: for each 16-column tile, 128 k-columns
/// of its B rows at a time are transposed into a double panel, and 2 rows
/// x 16 columns of double accumulators stay in registers across the
/// block, carried between blocks in a small per-call buffer. Bitwise
/// equal to the scalar gather for any row range.
void matmul_nt_f32_avx2(const float* a, const float* b, int64_t i0,
                        int64_t i1, int64_t k, int64_t n, float* c);

/// Dense matmul rows [i0, i1): the i-k-j axpy with the zero-skip
/// preserved (pruned weights must stay exact no-ops — adding an
/// explicit 0 term could flip a -0.0 output) and the C row held across
/// up to 4 surviving nonzeros per pass.
void matmul_f32_avx2(const float* a, const float* b, int64_t i0, int64_t i1,
                     int64_t k, int64_t n, float* c);

}  // namespace ndsnn::sparse::simd
