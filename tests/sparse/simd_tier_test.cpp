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

#include <cstring>
#include <string>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/simd_kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "util/cpuinfo.hpp"
#include "util/thread_pool.hpp"

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

TEST(SimdTierTest, CsrSpmmTBitwiseAcrossTiersAndThreads) {
  // fc1 scale, plus a ragged batch (13 = 8 + 5 tail) so the 8-lane
  // AVX2 batch panels hit their cleanup path.
  const Tensor w = sparse_matrix(120, 400, 0.9, 7);
  const Csr csr = Csr::from_dense(w);
  util::ThreadPool pool(3);
  for (const int64_t m : {13L, 8L, 32L}) {
    const Tensor b = dense_batch(m, 400, 11);
    const Tensor ref = csr.spmm_t(b, nullptr, Tier::kScalar);
    for (const Tier tier : kTiers) {
      expect_bitwise(csr.spmm_t(b, nullptr, tier), ref, "csr spmm_t serial");
      expect_bitwise(csr.spmm_t(b, &pool, tier), ref, "csr spmm_t pooled");
    }
  }
}

TEST(SimdTierTest, CsrSpmmTSmallBatchFallsBackBitwise) {
  // m < 8 takes the scalar row path at every tier; still bitwise.
  const Tensor w = sparse_matrix(40, 64, 0.8, 3);
  const Csr csr = Csr::from_dense(w);
  const Tensor b = dense_batch(3, 64, 5);
  const Tensor ref = csr.spmm_t(b, nullptr, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(csr.spmm_t(b, nullptr, tier), ref, "csr spmm_t small batch");
  }
}

TEST(SimdTierTest, DenseMatmulBitwiseAcrossTiers) {
  const Tensor a = sparse_matrix(33, 48, 0.6, 31);  // zero-skip path has real zeros
  const Tensor b = dense_batch(48, 19, 37);
  util::ThreadPool pool(2);
  const Tensor ref = tensor::matmul(a, b, nullptr, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(tensor::matmul(a, b, nullptr, tier), ref, "matmul serial");
    expect_bitwise(tensor::matmul(a, b, &pool, tier), ref, "matmul pooled");
  }
}

TEST(SimdTierTest, DenseMatmulNtBitwiseAcrossTiers) {
  const Tensor a = dense_batch(13, 48, 41);
  const Tensor w = sparse_matrix(31, 48, 0.5, 43);  // B of matmul_nt = weights [n, k]
  util::ThreadPool pool(3);
  const Tensor ref = tensor::matmul_nt(a, w, nullptr, Tier::kScalar);
  for (const Tier tier : kTiers) {
    expect_bitwise(tensor::matmul_nt(a, w, nullptr, tier), ref, "matmul_nt serial");
    expect_bitwise(tensor::matmul_nt(a, w, &pool, tier), ref, "matmul_nt pooled");
  }
}

/// The AVX2 matmul_nt body runs k in 128-wide blocks and n in 16-wide
/// register tiles (two rows at a time), carrying double chains across
/// blocks. Shapes here straddle every seam: k below, at and several
/// blocks past the block width with a ragged last block; n not a multiple
/// of 8 or 16 (75 and 150 are the LeNet-5 conv patch widths); odd m; and
/// pooled row ranges of 1-4 lanes. Signed zeros in A, B and the C
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
    tensor::matmul_nt_acc(a, b, ref, nullptr, Tier::kScalar);
    const std::string shape = std::to_string(cs.m) + "x" + std::to_string(cs.k) + "x" +
                              std::to_string(cs.n);
    for (const Tier tier : kTiers) {
      Tensor serial = c0;
      tensor::matmul_nt_acc(a, b, serial, nullptr, tier);
      expect_bitwise(serial, ref, ("matmul_nt_acc serial " + shape).c_str());
      for (int64_t lanes = 1; lanes <= 4; ++lanes) {
        util::ThreadPool pool(lanes);
        Tensor pooled = c0;
        tensor::matmul_nt_acc(a, b, pooled, &pool, tier);
        expect_bitwise(pooled, ref, ("matmul_nt_acc pooled " + shape).c_str());
      }
    }
  }
}

TEST(SimdTierTest, TransposeHelperMatchesNaive) {
  const int64_t rows = 13, cols = 23;
  const Tensor in = dense_batch(rows, cols, 47);
  std::vector<float> out(static_cast<std::size_t>(rows * cols), -1.0F);
  simd::transpose_f32(in.data(), rows, cols, out.data(), 0, cols);
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
    for (const int64_t group : {0L, 64L}) {
      Tensor w = sparse_matrix(120, 400, 0.9, 53);
      Csr csr = Csr::from_dense(w);
      (void)csr.quantize(p, /*symmetric=*/true, /*uniform_scale=*/false, group);
      const Tensor b = dense_batch(13, 400, 59);
      const Tensor ref = csr.spmm_t(b, nullptr, Tier::kScalar);
      // int4 codes are coarse; the per-output dot products here sum
      // ~40 nonzero terms of magnitude <= 2, so 1e-3 is far below the
      // quantisation error yet far above fp32 reassociation noise.
      for (const Tier tier : kTiers) {
        expect_close(csr.spmm_t(b, nullptr, tier), ref, 1e-3F, "quantised csr spmm_t");
      }
    }
  }
}

TEST(SimdTierTest, GroupedPlaneImprovesInt4Error) {
  // A matrix with per-row outliers: one large entry per row blows up
  // the per-row int4 scale; 32-wide groups isolate the outlier.
  Rng rng(61);
  Tensor w(Shape{32, 256});
  w.fill_uniform(rng, -0.1F, 0.1F);
  for (int64_t r = 0; r < 32; ++r) w.at(r, 7) = 4.0F;
  const float per_row = relative_quant_error(w, Precision::kInt4, 0.0F, false);
  const float grouped = relative_quant_error(w, Precision::kInt4, 0.0F, false, 32);
  EXPECT_LT(grouped, per_row);

  // The grouped plane's reconstruction must respect its group scales:
  // round-trip through dequant and compare per element.
  Csr csr = Csr::from_dense(w);
  (void)csr.quantize(Precision::kInt4, true, false, 32);
  EXPECT_EQ(csr.quant().group_size, 32);
  const Tensor back = csr.to_dense();
  // Small-magnitude entries must reconstruct to ~1/16 of their group
  // max (0.1), not 1/16 of the row max (4.0).
  for (int64_t r = 0; r < 32; ++r) {
    EXPECT_NEAR(back.at(r, 100), w.at(r, 100), 0.1F / 7.0F + 1e-5F);
  }
}

TEST(SimdTierTest, GroupedQuantizeValidation) {
  Csr csr = Csr::from_dense(sparse_matrix(16, 64, 0.5, 67));
  EXPECT_THROW((void)csr.quantize(Precision::kInt8, true, false, 24),
               std::invalid_argument);  // not a power of two
  EXPECT_THROW((void)csr.quantize(Precision::kInt8, true, true, 32),
               std::invalid_argument);  // uniform + grouped conflict
  EXPECT_THROW((void)csr.quantize(Precision::kInt8, false, false, 32),
               std::invalid_argument);  // grouped is symmetric-only
}

TEST(SimdTierTest, GroupedGatherMatchesOwnDequantisedValues) {
  // Event-path kernel on a grouped plane: spmv_gather must accumulate
  // exactly the plane's own dequantised values (to_dense uses the same
  // QuantPlane::dequant), in the same ascending-j double chains.
  Tensor w = sparse_matrix(48, 96, 0.8, 71);
  Csr csr_t = Csr::from_dense(w).transposed();  // Wᵀ [96, 48]
  (void)csr_t.quantize(Precision::kInt8, true, false, 16);
  const Tensor deq = csr_t.to_dense();
  const Tensor b = dense_batch(1, 96, 73);
  std::vector<int32_t> active;
  for (int32_t j = 0; j < 96; ++j) active.push_back(j);
  std::vector<double> acc(48, 0.0);
  csr_t.spmv_gather(b.data(), active.data(), static_cast<int64_t>(active.size()),
                    acc.data());
  for (int64_t r = 0; r < 48; ++r) {
    double expect = 0.0;
    for (int64_t j = 0; j < 96; ++j) {
      expect += static_cast<double>(deq.at(j, r)) * static_cast<double>(b.at(0, j));
    }
    EXPECT_NEAR(acc[static_cast<std::size_t>(r)], expect, 1e-12);
  }
}

}  // namespace
}  // namespace ndsnn::sparse
