// AVX2(+FMA) kernel bodies for the kAvx2 dispatch tier. See
// simd_kernels.hpp for the bitwise contract each body carries and
// cpuinfo.hpp for how a body gets selected.
//
// Build note: every function is individually annotated
// __attribute__((target("avx2,fma"))) so this TU compiles under a
// generic -march (the default local build) and the resulting objects
// are safe to link anywhere — the instructions only execute after
// cpuid has proven them legal. The fp32 float chains use explicit
// _mm256_mul_* / _mm256_add_* pairs, never _mm256_fmadd_*: the scalar
// references round between multiply and add (the build pins
// -ffp-contract=off), and one fused step would break the cross-tier
// bitwise guarantee. The double chains of matmul_nt use
// _mm256_fmadd_pd, which is exact there: a float x float product needs
// at most 48 mantissa bits, so the fused step rounds exactly once, like
// the scalar add. The quantised bodies use FMA freely.
#include "sparse/simd_kernels.hpp"

#include <algorithm>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NDSNN_HAVE_AVX2_BODIES 1
#include <immintrin.h>
#endif

namespace ndsnn::sparse::simd {

bool built_with_avx2() {
#ifdef NDSNN_HAVE_AVX2_BODIES
  return true;
#else
  return false;
#endif
}

void transpose_f32(const float* in, int64_t rows, int64_t cols, float* out,
                   int64_t c0, int64_t c1) {
  for (int64_t c = c0; c < c1; ++c) {
    float* orow = out + c * rows;
    const float* ip = in + c;
    for (int64_t r = 0; r < rows; ++r) orow[r] = ip[r * cols];
  }
}

#ifdef NDSNN_HAVE_AVX2_BODIES

namespace {

/// One fused axpy pass: crow[j] += vs[0]*brows[0][j]; ...; += vs[cnt-1]*
/// brows[cnt-1][j] — each term a separate rounded mul+add, so per
/// element the sequence equals `cnt` consecutive scalar axpys.
__attribute__((target("avx2,fma"))) void axpy_group(float* crow, int64_t n,
                                                    const float* vs,
                                                    const float* const* brows,
                                                    int cnt) {
  const int64_t n8 = n & ~int64_t{7};
  int64_t j = 0;
  for (; j < n8; j += 8) {
    __m256 c = _mm256_loadu_ps(crow + j);
    for (int t = 0; t < cnt; ++t) {
      c = _mm256_add_ps(
          c, _mm256_mul_ps(_mm256_set1_ps(vs[t]), _mm256_loadu_ps(brows[t] + j)));
    }
    _mm256_storeu_ps(crow + j, c);
  }
  for (; j < n; ++j) {
    float cj = crow[j];
    for (int t = 0; t < cnt; ++t) cj += vs[t] * brows[t][j];
    crow[j] = cj;
  }
}

/// Decode one packed int4 code (two's-complement nibble), identical to
/// the scalar kernels' decode.
__attribute__((target("avx2,fma"))) inline float decode_i4(const uint8_t* q4,
                                                           int64_t k) {
  const auto byte = static_cast<int8_t>(q4[k >> 1]);
  return (k & 1) != 0
             ? static_cast<float>(byte >> 4)
             : static_cast<float>(static_cast<int8_t>(static_cast<uint8_t>(byte) << 4) >> 4);
}

}  // namespace

__attribute__((target("avx2,fma"))) void csr_spmm_t_f32_avx2(
    const int64_t* row_ptr, const int32_t* col_idx, const float* values,
    int64_t r0, int64_t r1, const float* bt, int64_t m, int64_t out_stride,
    float* cp) {
  const int64_t m8 = m & ~int64_t{7};
  for (int64_t i = 0; i < m8; i += 8) {
    for (int64_t r = r0; r < r1; ++r) {
      // Two independent 4-wide double chains: per output lane the adds
      // still run in ascending-k order (lane t only ever meets its own
      // chain), and a float*float product is exact in double, so each
      // lane reproduces the scalar double chain bit for bit.
      __m256d acc_lo = _mm256_setzero_pd();
      __m256d acc_hi = _mm256_setzero_pd();
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        const float* p = bt + static_cast<int64_t>(col_idx[k]) * m + i;
        const __m256d v = _mm256_set1_pd(static_cast<double>(values[k]));
        acc_lo = _mm256_add_pd(acc_lo,
                               _mm256_mul_pd(v, _mm256_cvtps_pd(_mm_loadu_ps(p))));
        acc_hi = _mm256_add_pd(
            acc_hi, _mm256_mul_pd(v, _mm256_cvtps_pd(_mm_loadu_ps(p + 4))));
      }
      float out[8];
      _mm_storeu_ps(out, _mm256_cvtpd_ps(acc_lo));
      _mm_storeu_ps(out + 4, _mm256_cvtpd_ps(acc_hi));
      for (int t = 0; t < 8; ++t) cp[(i + t) * out_stride + r] = out[t];
    }
  }
  for (int64_t i = m8; i < m; ++i) {  // batch tail: the scalar chain
    for (int64_t r = r0; r < r1; ++r) {
      double acc = 0.0;
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        acc += static_cast<double>(values[k]) *
               static_cast<double>(bt[static_cast<int64_t>(col_idx[k]) * m + i]);
      }
      cp[i * out_stride + r] = static_cast<float>(acc);
    }
  }
}

__attribute__((target("avx2,fma"))) void csr_spmm_t_i8_avx2(
    const int64_t* row_ptr, const int32_t* col_idx, const int8_t* q8,
    const float* scale, int group_shift, int64_t r0, int64_t r1,
    const float* bt, int64_t m, int64_t out_stride, float* cp) {
  const int64_t m8 = m & ~int64_t{7};
  for (int64_t i = 0; i < m8; i += 8) {
    for (int64_t r = r0; r < r1; ++r) {
      // No bitwise contract: two reassociated FMA chains over even/odd
      // nonzeros hide the FMA latency.
      __m256 acc_a = _mm256_setzero_ps();
      __m256 acc_b = _mm256_setzero_ps();
      const int64_t k1 = row_ptr[r + 1];
      int64_t k = row_ptr[r];
      for (; k + 2 <= k1; k += 2) {
        float c0 = static_cast<float>(q8[k]);
        float c1 = static_cast<float>(q8[k + 1]);
        if (group_shift >= 0) {
          c0 *= scale[k >> group_shift];
          c1 *= scale[(k + 1) >> group_shift];
        }
        acc_a = _mm256_fmadd_ps(
            _mm256_set1_ps(c0),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k]) * m + i), acc_a);
        acc_b = _mm256_fmadd_ps(
            _mm256_set1_ps(c1),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k + 1]) * m + i),
            acc_b);
      }
      if (k < k1) {
        float c0 = static_cast<float>(q8[k]);
        if (group_shift >= 0) c0 *= scale[k >> group_shift];
        acc_a = _mm256_fmadd_ps(
            _mm256_set1_ps(c0),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k]) * m + i), acc_a);
      }
      __m256 acc = _mm256_add_ps(acc_a, acc_b);
      if (group_shift < 0) acc = _mm256_mul_ps(acc, _mm256_set1_ps(scale[r]));
      float out[8];
      _mm256_storeu_ps(out, acc);
      for (int t = 0; t < 8; ++t) cp[(i + t) * out_stride + r] = out[t];
    }
  }
  for (int64_t i = m8; i < m; ++i) {
    for (int64_t r = r0; r < r1; ++r) {
      float acc = 0.0F;
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        float c0 = static_cast<float>(q8[k]);
        if (group_shift >= 0) c0 *= scale[k >> group_shift];
        acc += c0 * bt[static_cast<int64_t>(col_idx[k]) * m + i];
      }
      if (group_shift < 0) acc *= scale[r];
      cp[i * out_stride + r] = acc;
    }
  }
}

__attribute__((target("avx2,fma"))) void csr_spmm_t_i4_avx2(
    const int64_t* row_ptr, const int32_t* col_idx, const uint8_t* q4,
    const float* scale, int group_shift, int64_t r0, int64_t r1,
    const float* bt, int64_t m, int64_t out_stride, float* cp) {
  const int64_t m8 = m & ~int64_t{7};
  for (int64_t i = 0; i < m8; i += 8) {
    for (int64_t r = r0; r < r1; ++r) {
      __m256 acc_a = _mm256_setzero_ps();
      __m256 acc_b = _mm256_setzero_ps();
      const int64_t k1 = row_ptr[r + 1];
      int64_t k = row_ptr[r];
      for (; k + 2 <= k1; k += 2) {
        float c0 = decode_i4(q4, k);
        float c1 = decode_i4(q4, k + 1);
        if (group_shift >= 0) {
          c0 *= scale[k >> group_shift];
          c1 *= scale[(k + 1) >> group_shift];
        }
        acc_a = _mm256_fmadd_ps(
            _mm256_set1_ps(c0),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k]) * m + i), acc_a);
        acc_b = _mm256_fmadd_ps(
            _mm256_set1_ps(c1),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k + 1]) * m + i),
            acc_b);
      }
      if (k < k1) {
        float c0 = decode_i4(q4, k);
        if (group_shift >= 0) c0 *= scale[k >> group_shift];
        acc_a = _mm256_fmadd_ps(
            _mm256_set1_ps(c0),
            _mm256_loadu_ps(bt + static_cast<int64_t>(col_idx[k]) * m + i), acc_a);
      }
      __m256 acc = _mm256_add_ps(acc_a, acc_b);
      if (group_shift < 0) acc = _mm256_mul_ps(acc, _mm256_set1_ps(scale[r]));
      float out[8];
      _mm256_storeu_ps(out, acc);
      for (int t = 0; t < 8; ++t) cp[(i + t) * out_stride + r] = out[t];
    }
  }
  for (int64_t i = m8; i < m; ++i) {
    for (int64_t r = r0; r < r1; ++r) {
      float acc = 0.0F;
      const int64_t k1 = row_ptr[r + 1];
      for (int64_t k = row_ptr[r]; k < k1; ++k) {
        float c0 = decode_i4(q4, k);
        if (group_shift >= 0) c0 *= scale[k >> group_shift];
        acc += c0 * bt[static_cast<int64_t>(col_idx[k]) * m + i];
      }
      if (group_shift < 0) acc *= scale[r];
      cp[i * out_stride + r] = acc;
    }
  }
}

namespace {

constexpr int64_t kNtBlockK = 128;  // k columns per transposed panel
constexpr int64_t kNtTileN = 16;    // output columns per register tile

/// R output rows x 16 output columns over one k block: the 4R double
/// accumulators stay in registers for the whole block and are carried
/// between blocks through `acc` ([R][16]). `ad` holds the R rows of A
/// (as double, row stride kNtBlockK), `panel` the tile's 16 B rows
/// transposed ([kk][16]). Each lane's chain ascends kk; the fused
/// multiply-add is exact because a float x float product fits a
/// double's mantissa, so it rounds once, like the scalar add.
template <int R>
__attribute__((target("avx2,fma"))) inline void matmul_nt_tile(const double* ad,
                                                               const double* panel,
                                                               int64_t kb, double* acc) {
  __m256d c[R][4];
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < 4; ++q) c[r][q] = _mm256_loadu_pd(acc + r * kNtTileN + 4 * q);
  }
  for (int64_t kk = 0; kk < kb; ++kk) {
    const double* p = panel + kk * kNtTileN;
    const __m256d b0 = _mm256_loadu_pd(p);
    const __m256d b1 = _mm256_loadu_pd(p + 4);
    const __m256d b2 = _mm256_loadu_pd(p + 8);
    const __m256d b3 = _mm256_loadu_pd(p + 12);
    for (int r = 0; r < R; ++r) {
      const __m256d av = _mm256_broadcast_sd(ad + r * kNtBlockK + kk);
      c[r][0] = _mm256_fmadd_pd(av, b0, c[r][0]);
      c[r][1] = _mm256_fmadd_pd(av, b1, c[r][1]);
      c[r][2] = _mm256_fmadd_pd(av, b2, c[r][2]);
      c[r][3] = _mm256_fmadd_pd(av, b3, c[r][3]);
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int q = 0; q < 4; ++q) _mm256_storeu_pd(acc + r * kNtTileN + 4 * q, c[r][q]);
  }
}

/// panel[kk][l] = double(b[l * k + kk]) for kk < kb and the tile's
/// `lanes` valid B rows; lanes past the end of B read as zero. Four
/// rows at a time go through a 4x4 register transpose.
__attribute__((target("avx2,fma"))) void load_nt_panel(const float* b, int64_t k,
                                                       int64_t lanes, int64_t kb,
                                                       double* panel) {
  for (int64_t g = 0; g < kNtTileN; g += 4) {
    double* dst = panel + g;
    int64_t kk = 0;
    if (g + 4 <= lanes) {
      const float* r0 = b + g * k;
      for (; kk + 4 <= kb; kk += 4) {
        __m128 x0 = _mm_loadu_ps(r0 + kk);
        __m128 x1 = _mm_loadu_ps(r0 + k + kk);
        __m128 x2 = _mm_loadu_ps(r0 + 2 * k + kk);
        __m128 x3 = _mm_loadu_ps(r0 + 3 * k + kk);
        _MM_TRANSPOSE4_PS(x0, x1, x2, x3);
        _mm256_storeu_pd(dst + kk * kNtTileN, _mm256_cvtps_pd(x0));
        _mm256_storeu_pd(dst + (kk + 1) * kNtTileN, _mm256_cvtps_pd(x1));
        _mm256_storeu_pd(dst + (kk + 2) * kNtTileN, _mm256_cvtps_pd(x2));
        _mm256_storeu_pd(dst + (kk + 3) * kNtTileN, _mm256_cvtps_pd(x3));
      }
    }
    for (; kk < kb; ++kk) {
      for (int64_t l = 0; l < 4; ++l) {
        dst[kk * kNtTileN + l] = g + l < lanes ? b[(g + l) * k + kk] : 0.0;
      }
    }
  }
}

}  // namespace

__attribute__((target("avx2,fma"))) void matmul_nt_f32_avx2(
    const float* a, const float* b, int64_t i0, int64_t i1, int64_t k,
    int64_t n, float* c) {
  const int64_t rows = i1 - i0;
  if (rows <= 0) return;
  // Tile-outer: one 16-column tile sweeps all of k, so its 16 B rows and
  // the A rows are read as a few contiguous streams. acc carries the
  // tile's double chains across k blocks; the block's panel and A rows
  // stay cache-resident while the row pairs sweep them.
  std::vector<double> acc(static_cast<std::size_t>(rows * kNtTileN));
  std::vector<double> panel(static_cast<std::size_t>(kNtBlockK * kNtTileN));
  std::vector<double> ad(static_cast<std::size_t>(rows * kNtBlockK));
  for (int64_t j0 = 0; j0 < n; j0 += kNtTileN) {
    const int64_t lanes = std::min(kNtTileN, n - j0);
    std::fill(acc.begin(), acc.end(), 0.0);
    for (int64_t k0 = 0; k0 < k; k0 += kNtBlockK) {
      const int64_t kb = std::min(kNtBlockK, k - k0);
      load_nt_panel(b + j0 * k + k0, k, lanes, kb, panel.data());
      for (int64_t r = 0; r < rows; ++r) {
        const float* src = a + (i0 + r) * k + k0;
        double* dst = ad.data() + r * kNtBlockK;
        for (int64_t kk = 0; kk < kb; ++kk) dst[kk] = src[kk];
      }
      int64_t r = 0;
      for (; r + 2 <= rows; r += 2) {
        matmul_nt_tile<2>(ad.data() + r * kNtBlockK, panel.data(), kb,
                          acc.data() + r * kNtTileN);
      }
      if (r < rows) {
        matmul_nt_tile<1>(ad.data() + r * kNtBlockK, panel.data(), kb,
                          acc.data() + r * kNtTileN);
      }
    }
    // The pad lanes past n are never written out.
    for (int64_t r = 0; r < rows; ++r) {
      float* crow = c + (i0 + r) * n + j0;
      const double* arow = acc.data() + r * kNtTileN;
      for (int64_t l = 0; l < lanes; ++l) crow[l] += static_cast<float>(arow[l]);
    }
  }
}

__attribute__((target("avx2,fma"))) void matmul_f32_avx2(const float* a,
                                                         const float* b,
                                                         int64_t i0, int64_t i1,
                                                         int64_t k, int64_t n,
                                                         float* c) {
  const float* brows[4];
  float vs[4];
  for (int64_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int cnt = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float aval = arow[kk];
      if (aval == 0.0F) continue;  // pruned entries stay exact no-ops
      vs[cnt] = aval;
      brows[cnt] = b + kk * n;
      if (++cnt == 4) {
        axpy_group(crow, n, vs, brows, 4);
        cnt = 0;
      }
    }
    if (cnt != 0) axpy_group(crow, n, vs, brows, cnt);
  }
}

#else  // !NDSNN_HAVE_AVX2_BODIES — stubs; dispatch never reaches them
       // because built_with_avx2() is false and detected() caps below
       // kAvx2 off x86.

void csr_spmm_t_f32_avx2(const int64_t*, const int32_t*, const float*, int64_t,
                         int64_t, const float*, int64_t, int64_t, float*) {}
void csr_spmm_t_i8_avx2(const int64_t*, const int32_t*, const int8_t*,
                        const float*, int, int64_t, int64_t, const float*,
                        int64_t, int64_t, float*) {}
void csr_spmm_t_i4_avx2(const int64_t*, const int32_t*, const uint8_t*,
                        const float*, int, int64_t, int64_t, const float*,
                        int64_t, int64_t, float*) {}
void matmul_nt_f32_avx2(const float*, const float*, int64_t, int64_t, int64_t,
                        int64_t, float*) {}
void matmul_f32_avx2(const float*, const float*, int64_t, int64_t, int64_t,
                     int64_t, float*) {}

#endif

}  // namespace ndsnn::sparse::simd
