// Kernel-tier dispatch contract (util/cpuinfo.hpp): for every tiered
// fp32 kernel, the scalar and AVX2 bodies must produce bitwise
// identical results — including ragged batch tails that exercise the
// intrinsic bodies' scalar cleanup loops — and quantised bodies must
// agree with their scalar reference within the QuantPlane error
// contract. Tiers are passed explicitly (no force() global state), and
// util::simd::resolve clamps impossible requests to detected(), so on a
// non-AVX2 host the kAvx2 cases degrade to comparing kScalar against
// itself instead of being skipped or faulting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "../testing_env.hpp"
#include "sparse/csr.hpp"
#include "sparse/simd_kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "util/cpuinfo.hpp"
#include "util/stopwatch.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;
using util::simd::Tier;

/// A weight-like matrix: uniform values with a fraction zeroed so the
/// sparse formats have real structure (and the AVX2 spmm_t gate
/// nnz >= cols holds at the sizes used here).
Tensor sparse_matrix(int64_t rows, int64_t cols, double sparsity, uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{rows, cols});
  t.fill_uniform(rng, -1.0F, 1.0F);
  float* p = t.data();
  // Deterministic stride-based zeroing: exact sparsity, spread pattern.
  const int64_t keep_every = sparsity >= 1.0 ? t.numel() + 1
                                             : static_cast<int64_t>(1.0 / (1.0 - sparsity));
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (i % keep_every != 0) p[i] = 0.0F;
  }
  return t;
}

Tensor dense_batch(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{rows, cols});
  t.fill_uniform(rng, -2.0F, 2.0F);
  return t;
}

void expect_bitwise(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << ": tiers disagree bitwise";
}

void expect_close(const Tensor& a, const Tensor& b, float tol, const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a.at(i), b.at(i), tol) << what << " at flat index " << i;
  }
}

constexpr Tier kTiers[] = {Tier::kScalar, Tier::kAvx2};

TEST(SimdTierTest, DetectedTierIsExecutable) {
  const Tier t = util::simd::detected();
  EXPECT_NE(t, Tier::kAuto);
  // resolve() must clamp any request to something the box executes.
  for (const Tier req : kTiers) {
    EXPECT_LE(static_cast<int>(util::simd::resolve(req)), static_cast<int>(t));
  }
  EXPECT_TRUE(simd::built_with_avx2() || util::simd::detected() != Tier::kAvx2);
}

TEST(SimdTierTest, CsrSpmmTBitwiseAcrossTiers) {
  // fc1 scale, plus a ragged batch (13 = 8 + 5 tail) so the 8-lane
  // AVX2 batch panels hit their cleanup path.
  const Tensor w = sparse_matrix(120, 400, 0.9, 7);
  const Csr csr = Csr::from_dense(w);
  for (const int64_t m : {13L, 8L, 32L}) {
    const Tensor b = dense_batch(m, 400, 11);
    const Tensor ref = csr.spmm_t(b, Tier::kScalar);
    for (const Tier tier : kTiers) expect_bitwise(csr.spmm_t(b, tier), ref, "csr spmm_t");
  }
}

// Floor for the hand-written AVX2 fp32 spmm_t kernel over the scalar
// reference on the fc1-scale layer. Both kernels run on the same box in
// the same process, so the ratio needs no cross-machine baseline.
constexpr double kAvx2MinSpeedup = 1.5;

TEST(SimdTierTest, CsrSpmmTAvx2BeatsScalar) {
  if (const char* why = difftest::timing_gate_skip_reason()) GTEST_SKIP() << why;
  if (util::simd::detected() < Tier::kAvx2) GTEST_SKIP() << "no avx2 on this host";
  // lenet5 fc1 scale: [120 x 400] at 0.9 sparsity, batch-major bT [256 x 400].
  Rng rng(20260728ULL);
  Tensor w(Shape{120, 400});
  w.fill_uniform(rng, -0.12F, 0.12F);
  for (int64_t i = 0; i < w.numel(); ++i) {
    if (rng.uniform01() < 0.9) w.at(i) = 0.0F;
  }
  Tensor bT(Shape{256, 400});
  bT.fill_uniform(rng, 0.0F, 1.0F);
  const Csr csr = Csr::from_dense(w);
  // Min of individually timed calls after two warm-ups: the least noisy
  // location statistic on a shared box.
  const auto min_ms = [&](Tier tier) {
    (void)csr.spmm_t(bT, tier);
    (void)csr.spmm_t(bT, tier);
    double best = 1e300;
    for (int r = 0; r < 100; ++r) {
      const util::Stopwatch sw;
      (void)csr.spmm_t(bT, tier);
      best = std::min(best, sw.millis());
    }
    return best;
  };
  const double scalar_ms = min_ms(Tier::kScalar);
  const double avx2_ms = min_ms(Tier::kAvx2);
  const double speedup = scalar_ms / avx2_ms;
  std::printf("fp32 spmm_t: scalar %.4f ms, avx2 %.4f ms -> %.2fx (floor %.1fx)\n",
              scalar_ms, avx2_ms, speedup, kAvx2MinSpeedup);
  EXPECT_GE(speedup, kAvx2MinSpeedup);
}

TEST(SimdTierTest, CsrSpmmTSmallBatchFallsBackBitwise) {
  // m < 8 takes the scalar row path at every tier; still bitwise.
  const Tensor w = sparse_matrix(40, 64, 0.8, 3);
  const Csr csr = Csr::from_dense(w);
  const Tensor b = dense_batch(3, 64, 5);
  const Tensor ref = csr.spmm_t(b, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(csr.spmm_t(b, tier), ref, "csr spmm_t small batch");
  }
}

TEST(SimdTierTest, DenseMatmulBitwiseAcrossTiers) {
  const Tensor a = sparse_matrix(33, 48, 0.6, 31);  // zero-skip path has real zeros
  const Tensor b = dense_batch(48, 19, 37);
  const Tensor ref = tensor::matmul(a, b, Tier::kScalar);
  for (const Tier tier : kTiers) expect_bitwise(tensor::matmul(a, b, tier), ref, "matmul");
}

TEST(SimdTierTest, DenseMatmulNtBitwiseAcrossTiers) {
  const Tensor a = dense_batch(13, 48, 41);
  const Tensor w = sparse_matrix(31, 48, 0.5, 43);  // B of matmul_nt = weights [n, k]
  const Tensor ref = tensor::matmul_nt(a, w, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(tensor::matmul_nt(a, w, tier), ref, "matmul_nt");
  }
}

/// The AVX2 matmul_nt body runs k in 128-wide blocks and n in 16-wide
/// register tiles (two rows at a time), carrying double chains across
/// blocks. Shapes here straddle every seam: k below, at and several
/// blocks past the block width with a ragged last block; n not a multiple
/// of 8 or 16 (75 and 150 are the LeNet-5 conv patch widths); and odd m.
/// Signed zeros in A, B and the C
/// accumulator must come out with the scalar gather's signs.
TEST(SimdTierTest, DenseMatmulNtBlockSeamsBitwiseAcrossTiers) {
  struct Case {
    int64_t m, k, n;
  };
  const Case cases[] = {{13, 300, 75}, {9, 100, 150}, {6, 384, 75}, {7, 129, 150},
                        {16, 517, 150}, {3, 1, 19}, {1, 257, 5}, {11, 128, 16}};
  uint64_t seed = 70;
  for (const Case& cs : cases) {
    Tensor a = dense_batch(cs.m, cs.k, seed++);
    Tensor b = sparse_matrix(cs.n, cs.k, 0.3, seed++);
    Tensor c0 = dense_batch(cs.m, cs.n, seed++);
    // A cancelling +-2^60 pair at k/3 and 2k/3 absorbs every small term
    // between them, so any change in the order a chain visits kk (or in
    // where a block's partial sum is rounded) changes the result.
    if (cs.k >= 3) {
      const int64_t p = cs.k / 3, q = 2 * cs.k / 3;
      for (int64_t i = 0; i < cs.m; ++i) {
        a.at(i, p) = 0x1p60F;
        a.at(i, q) = -0x1p60F;
      }
      for (int64_t j = 0; j < cs.n; ++j) {
        b.at(j, p) = 1.0F;
        b.at(j, q) = 1.0F;
      }
    }
    // Signed zeros: A row 0 all -0.0 against B row n-1 all +0.0 gives a
    // chain of -0.0 products, whose sum is +0.0 only because the chain
    // starts at +0.0; C row 0 starts at -0.0, so c[0, n-1] shows that
    // sign. Scattered +-0.0 elsewhere in A and C.
    for (int64_t kk = 0; kk < cs.k; ++kk) {
      a.at(0, kk) = -0.0F;
      b.at(cs.n - 1, kk) = 0.0F;
    }
    for (int64_t i = cs.k; i < a.numel(); i += 7) a.at(i) = (i % 2 == 0) ? -0.0F : 0.0F;
    for (int64_t j = 0; j < cs.n; ++j) c0.at(0, j) = -0.0F;
    for (int64_t i = 0; i < c0.numel(); i += 5) c0.at(i) = -0.0F;

    Tensor ref = c0;
    tensor::matmul_nt_acc(a, b, ref, Tier::kScalar);
    const std::string shape = std::to_string(cs.m) + "x" + std::to_string(cs.k) + "x" +
                              std::to_string(cs.n);
    for (const Tier tier : kTiers) {
      Tensor got = c0;
      tensor::matmul_nt_acc(a, b, got, tier);
      expect_bitwise(got, ref, ("matmul_nt_acc " + shape).c_str());
    }
  }
}

TEST(SimdTierTest, TransposeHelperMatchesNaive) {
  const int64_t rows = 13, cols = 23;
  const Tensor in = dense_batch(rows, cols, 47);
  std::vector<float> out(static_cast<std::size_t>(rows * cols), -1.0F);
  simd::transpose_f32(in.data(), rows, cols, out.data());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      EXPECT_EQ(out[static_cast<std::size_t>(c * rows + r)], in.at(r, c));
    }
  }
}

/// Quantised planes: no bitwise contract across tiers (the intrinsic
/// bodies reassociate with FMA), but every tier must stay within the
/// plane's error bound of the fp32 product — here checked against the
/// scalar quantised kernel with a tolerance well under the quantisation
/// step itself.
TEST(SimdTierTest, CsrSpmmTQuantisedTiersAgreeWithinTolerance) {
  for (const Precision p : {Precision::kInt8, Precision::kInt4}) {
    Tensor w = sparse_matrix(120, 400, 0.9, 53);
    Csr csr = Csr::from_dense(w);
    (void)csr.quantize(p);
    const Tensor b = dense_batch(13, 400, 59);
    const Tensor ref = csr.spmm_t(b, Tier::kScalar);
    // int4 codes are coarse; the per-output dot products here sum
    // ~40 nonzero terms of magnitude <= 2, so 1e-3 is far below the
    // quantisation error yet far above fp32 reassociation noise.
    for (const Tier tier : kTiers) {
      expect_close(csr.spmm_t(b, tier), ref, 1e-3F, "quantised csr spmm_t");
    }
  }
}

}  // namespace
}  // namespace ndsnn::sparse
