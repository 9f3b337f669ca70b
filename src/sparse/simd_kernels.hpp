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
// once per call (transpose_f32).
//
// All bodies are compiled with __attribute__((target("avx2,fma"))) so
// a generic x86-64 build still links and runs — cpuinfo's detected()
// simply never selects the tier on hardware without AVX2. On non-x86
// builds the functions are stubbed out and built_with_avx2() is false,
// so every kernel runs its scalar reference body there.
#pragma once

#include <cstdint>

#include "tensor/matmul.hpp"

namespace ndsnn::sparse::simd {

/// True when this build contains the AVX2 intrinsic bodies (x86-64 with
/// a compiler supporting target attributes). Runtime capability is a
/// separate question — util::simd::detected() answers it.
bool built_with_avx2();

/// out[c * rows + r] = in[r * cols + c]. Plain strided copy (no FP
/// ops, trivially bitwise); the spmm_t driver builds bt with it.
void transpose_f32(const float* in, int64_t rows, int64_t cols, float* out);

/// fp32 Csr::spmm_t over all `rows` CSR rows: cp[i * rows + r] =
/// float(sum_k (double)v_k * (double)bt[col_k * m + i]), 8 batch lanes
/// per pass in two 4-wide double chains.
void csr_spmm_t_f32_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                         const float* values, int64_t rows, const float* bt,
                         int64_t m, float* cp);

/// Quantised Csr::spmm_t: symmetric codes accumulate raw, and the
/// row's scale[r] is applied once per output.
void csr_spmm_t_i8_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                        const int8_t* q8, const float* scale, int64_t rows,
                        const float* bt, int64_t m, float* cp);
void csr_spmm_t_i4_avx2(const int64_t* row_ptr, const int32_t* col_idx,
                        const uint8_t* q4, const float* scale, int64_t rows,
                        const float* bt, int64_t m, float* cp);

/// One k block of matmul_nt over all m rows of A: for each row i and
/// each B row j (its kb columns at b_rows[j]), acc[i * ld + j] continues
/// its double chain over ascending kk of a(i, kk) * b_rows[j][kk], where
/// ld is n rounded up to 16 (the pad entries are scratch). Per block of
/// 128 k-columns the A rows are converted to double once; each 16-row
/// tile of B is transposed into a double panel and 2 rows x 16 columns
/// of accumulators stay in registers across the block. Bitwise equal to
/// the scalar gather (tensor::NtChains).
void matmul_nt_f32_avx2(const tensor::SegmentedRows& a, const float* const* b_rows, int64_t m,
                        int64_t k, int64_t n, double* acc);

/// One k block of matmul_nt at the kept entries only. The work items are
/// (B row item_col[t], 4-row group item_group[t] of A) pairs with a kept
/// entry, ascending; item t carries the chains of the group's 4 rows in
/// acc[4t, 4t + 4). A-stationary: per k block, all m rows of A go into a
/// double panel [kk][m rounded up to 4]. Each item is a 4-lane double
/// chain of b_rows[j][kk] (broadcast) times the group's panel lanes, so B
/// is read row by row and only the rows with a kept entry are read at
/// all. A pass runs up to 8 items of up to 4 B rows, 8 chains in flight.
/// Each chain ascends kk, so it is bitwise the scalar gather.
void matmul_nt_masked_f32_avx2(const tensor::SegmentedRows& a, const float* const* b_rows,
                               int64_t m, int64_t k, const int64_t* item_col,
                               const int64_t* item_group, int64_t items, double* acc);

/// Dense matmul over all m rows of A: the i-k-j axpy with the zero-skip
/// preserved (pruned weights must stay exact no-ops — adding an
/// explicit 0 term could flip a -0.0 output) and the C row held across
/// up to 4 surviving nonzeros per pass. Row kk of B is b_rows[kk][0, n);
/// C rows are ldc apart (blocks of larger matrices).
void matmul_f32_avx2(const float* a, const float* const* b_rows, int64_t m, int64_t k,
                     int64_t n, float* c, int64_t ldc);

}  // namespace ndsnn::sparse::simd
