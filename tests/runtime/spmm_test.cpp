// CSR conv2d / spmm_t equivalence against the dense kernels
// (nn::Conv2d::forward, tensor::matmul_nt) and naive references on
// random masked weights, plus the degenerate shapes real plans hit (the
// runtime's correctness cornerstone).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "nn/conv2d.hpp"
#include "sparse/csr.hpp"
#include "sparse/mask.hpp"
#include "tensor/matmul.hpp"
#include "tensor/random.hpp"
#include "testing.hpp"

namespace ndsnn::sparse {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor random_masked(Shape shape, double sparsity, Rng& rng) {
  Tensor dense(shape);
  dense.fill_uniform(rng, -1.0F, 1.0F);
  const auto active =
      static_cast<int64_t>(static_cast<double>(dense.numel()) * (1.0 - sparsity));
  const Mask mask(shape, active, rng);
  mask.apply(dense);
  return dense;
}

/// Naive references (double accumulation), deliberately independent of
/// the kernels under test so kernel and oracle share no code.
Tensor naive_abt(const Tensor& b, const Tensor& a) {  // B * Aᵀ
  const int64_t m = b.dim(0), k = b.dim(1), r = a.dim(0);
  Tensor c(Shape{m, r});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < r; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(b.at(i, kk)) * static_cast<double>(a.at(j, kk));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

/// Direct convolution by definition: out[m, f, oy, ox] = sum over (c,
/// ky, kx) of w[f, c, ky, kx] * x[m, c, oy*s + ky - p, ox*s + kx - p],
/// out-of-range input positions reading as zero.
Tensor naive_conv(const Tensor& x, const Tensor& w, int64_t stride, int64_t padding) {
  const int64_t m = x.dim(0), c = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int64_t f = w.dim(0), k = w.dim(2);
  const int64_t oh = (h + 2 * padding - k) / stride + 1;
  const int64_t ow = (wd + 2 * padding - k) / stride + 1;
  Tensor out(Shape{m, f, oh, ow});
  for (int64_t mm = 0; mm < m; ++mm) {
    for (int64_t ff = 0; ff < f; ++ff) {
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (int64_t cc = 0; cc < c; ++cc) {
            for (int64_t ky = 0; ky < k; ++ky) {
              for (int64_t kx = 0; kx < k; ++kx) {
                const int64_t iy = oy * stride + ky - padding;
                const int64_t ix = ox * stride + kx - padding;
                if (iy < 0 || iy >= h || ix < 0 || ix >= wd) continue;
                acc += static_cast<double>(w.data()[((ff * c + cc) * k + ky) * k + kx]) *
                       static_cast<double>(x.data()[((mm * c + cc) * h + iy) * wd + ix]);
              }
            }
          }
          out.data()[((mm * f + ff) * oh + oy) * ow + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

void expect_bitwise(const Tensor& got, const Tensor& want, const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  ASSERT_EQ(std::memcmp(got.data(), want.data(), sizeof(float) * want.numel()), 0)
      << context;
}

void expect_near_all(const Tensor& got, const Tensor& want, double tol,
                     const std::string& context) {
  ASSERT_EQ(got.shape(), want.shape()) << context;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_NEAR(got.at(i), want.at(i), tol) << context << " i=" << i;
  }
}

/// Input [m, c, h, w] uniform in [-1, 1).
Tensor random_input(int64_t m, int64_t c, int64_t h, int64_t w, Rng& rng) {
  Tensor x(Shape{m, c, h, w});
  x.fill_uniform(rng, -1.0F, 1.0F);
  return x;
}

/// nn::Conv2d carrying `weights` [F, C, K, K]: the interpreted forward the
/// compiled plan must match bitwise.
Tensor conv_forward(const Tensor& weights, int64_t stride, int64_t padding,
                    const Tensor& x) {
  Rng rng(1);
  nn::Conv2d conv(weights.dim(1), weights.dim(0), weights.dim(2), stride, padding, rng);
  conv.weight() = weights;
  return conv.forward(x, /*training=*/false);
}

TEST(CsrConvTest, MatchesNaiveOracleAndConv2dForwardBitwise) {
  // k x stride x padding, on H != W inputs, with C = 1, F = 1 and a
  // general shape. Covers ResNet-19's stride-2 3x3 (k3 s2 p1) and 1x1
  // shortcut (k1 s2 p0) convs. With F > 1 the last filter keeps no taps.
  Rng rng(21);
  struct Channels {
    int64_t c, f;
  };
  for (const Channels ch : {Channels{1, 4}, Channels{3, 1}, Channels{4, 5}}) {
    for (const int64_t k : {1, 3, 5}) {
      for (const int64_t stride : {1, 2}) {
        for (const int64_t padding : {0, 1, 2}) {
          Tensor w = random_masked(Shape{ch.f, ch.c, k, k}, 0.6, rng);
          const int64_t per_filter = ch.c * k * k;
          const int64_t empty = ch.f > 1 ? ch.f - 1 : -1;
          for (int64_t i = 0; empty >= 0 && i < per_filter; ++i) {
            w.at(empty * per_filter + i) = 0.0F;
          }
          const Tensor x = random_input(2, ch.c, 7, 10, rng);
          const std::string ctx = "c=" + std::to_string(ch.c) + " f=" + std::to_string(ch.f) +
                                  " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                                  " p=" + std::to_string(padding);
          const Tensor got = Csr::from_weights(w).conv2d(x, k, stride, padding);
          expect_near_all(got, naive_conv(x, w, stride, padding), 1e-5, "oracle " + ctx);
          expect_bitwise(got, conv_forward(w, stride, padding, x), "Conv2d::forward " + ctx);
          const int64_t plane = got.dim(2) * got.dim(3);
          for (int64_t mm = 0; empty >= 0 && mm < got.dim(0); ++mm) {
            for (int64_t p = 0; p < plane; ++p) {
              ASSERT_EQ(got.data()[(mm * ch.f + empty) * plane + p], 0.0F)
                  << "empty filter " << ctx;
            }
          }
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(CsrConvTest, AllPrunedMatrixYieldsZeros) {
  const Tensor w(Shape{4, 2, 3, 3});
  Rng rng(22);
  const Tensor got = Csr::from_weights(w).conv2d(random_input(3, 2, 6, 5, rng), 3, 1, 1);
  ASSERT_EQ(got.shape(), (Shape{3, 4, 6, 5}));
  for (int64_t i = 0; i < got.numel(); ++i) ASSERT_EQ(got.at(i), 0.0F) << i;
}

TEST(CsrConvTest, SampleBlocksMatchConv2dForwardBitwise) {
  // conv2d runs samples in blocks of about 1024 output elements per
  // filter: 20x20 planes give blocks of 2, 2, 1 samples (the last one in
  // place), 12x12 planes blocks of 7 and 3, 32x32 planes one sample per
  // block. Bitwise equal to Conv2d::forward.
  Rng rng(25);
  struct Geometry {
    int64_t m, image;
  };
  const Tensor w = random_masked(Shape{6, 3, 3, 3}, 0.5, rng);
  const Csr csr = Csr::from_weights(w);
  for (const Geometry g : {Geometry{5, 20}, Geometry{10, 12}, Geometry{2, 32}}) {
    const Tensor x = random_input(g.m, 3, g.image, g.image, rng);
    for (const int64_t stride : {1, 2}) {
      const std::string ctx = "m=" + std::to_string(g.m) + " image=" +
                              std::to_string(g.image) + " s=" + std::to_string(stride);
      const Tensor want = conv_forward(w, stride, 1, x);
      expect_bitwise(csr.conv2d(x, 3, stride, 1), want, ctx);
    }
  }
}

TEST(CsrConvTest, BadShapeThrows) {
  const Csr csr = Csr::from_weights(Tensor(Shape{4, 2, 3, 3}, 1.0F));
  Rng rng(24);
  const Tensor x = random_input(1, 2, 5, 5, rng);
  EXPECT_NO_THROW((void)csr.conv2d(x, 3, 1, 0));
  EXPECT_THROW((void)csr.conv2d(Tensor(Shape{2, 5, 5}), 3, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)csr.conv2d(random_input(1, 3, 5, 5, rng), 3, 1, 0),
               std::invalid_argument);  // channels * k * k != cols
  EXPECT_THROW((void)csr.conv2d(x, 2, 1, 0), std::invalid_argument);
  EXPECT_THROW((void)csr.conv2d(x, 3, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)csr.conv2d(x, 3, 1, -1), std::invalid_argument);
  EXPECT_THROW((void)csr.conv2d(random_input(1, 2, 2, 5, rng), 3, 1, 0),
               std::invalid_argument);  // kernel larger than padded input
}

TEST(SpmmTest, TransposedMatchesDenseMatmulNt) {
  Rng rng(12);
  for (const double sparsity : {0.0, 0.5, 0.95}) {
    const Tensor w = random_masked(Shape{31, 19}, sparsity, rng);  // [out, in]
    Tensor x(Shape{7, 19});                                       // [M, in]
    x.fill_uniform(rng, -1.0F, 1.0F);

    const Tensor expect = tensor::matmul_nt(x, w);
    const Tensor got = Csr::from_dense(w).spmm_t(x);
    ASSERT_EQ(got.shape(), expect.shape());
    for (int64_t i = 0; i < expect.numel(); ++i) {
      EXPECT_NEAR(got.at(i), expect.at(i), 1e-5) << "sparsity=" << sparsity << " i=" << i;
    }
  }
}

TEST(SpmmTest, EmptyMatrixYieldsZeros) {
  const Csr csr = Csr::from_dense(Tensor(Shape{4, 6}));
  Tensor x(Shape{5, 6}, 1.0F);
  const Tensor ct = csr.spmm_t(x);
  for (int64_t i = 0; i < ct.numel(); ++i) EXPECT_EQ(ct.at(i), 0.0F);
}

TEST(SpmmTest, ShapeMismatchThrows) {
  const Csr csr = Csr::from_dense(Tensor(Shape{4, 6}, 1.0F));
  EXPECT_THROW((void)csr.spmm_t(Tensor(Shape{3, 5})), std::invalid_argument);
}

TEST(SpmmTest, FromWeightsReshapesConvKernels) {
  Rng rng(13);
  Tensor w(Shape{8, 3, 5, 5});
  w.fill_uniform(rng, -1.0F, 1.0F);
  const Csr csr = Csr::from_weights(w);
  EXPECT_EQ(csr.rows(), 8);
  EXPECT_EQ(csr.cols(), 75);
  EXPECT_EQ(csr.nnz(), w.numel());
  EXPECT_THROW((void)Csr::from_weights(Tensor(Shape{5})), std::invalid_argument);
}

TEST(SpmmTest, EmptyRowsProduceZeroOutputRows) {
  // Rows 1 and 3 are entirely zero: CSR gets empty row extents.
  Tensor a(Shape{4, 6});
  for (int64_t c = 0; c < 6; ++c) {
    a.at(0, c) = static_cast<float>(c + 1);
    a.at(2, c) = -static_cast<float>(c + 1);
  }
  Tensor x(Shape{2, 6}, 0.25F);
  const Tensor want_t = naive_abt(x, a);
  expect_near_all(Csr::from_dense(a).spmm_t(x), want_t, 1e-5, "csr-t empty rows");
}

TEST(SpmmTest, SingleRowAndSingleColumnShapes) {
  Rng rng(41);
  for (const auto& shape : {Shape{1, 9}, Shape{9, 1}, Shape{1, 1}}) {
    const Tensor a = random_masked(shape, 0.3, rng);
    Tensor x(Shape{3, a.dim(1)});
    x.fill_uniform(rng, -1.0F, 1.0F);
    const std::string ctx = "shape " + shape.str();
    expect_near_all(Csr::from_dense(a).spmm_t(x), naive_abt(x, a), 1e-5, "csr-t " + ctx);
  }
}

TEST(SpmmTest, FuzzAgainstNaiveReference) {
  // Randomized sweep over shapes and sparsities for both kernels: spmm_t
  // on matrices, conv2d on conv geometries. Seeded via NDSNN_TEST_SEED.
  Rng rng(difftest::env_seed() ^ 0x5B3CC461ULL);
  const int rounds = difftest::env_int("NDSNN_FUZZ_ROUNDS", 40);
  for (int round = 0; round < rounds; ++round) {
    const int64_t rows = 1 + rng.uniform_int(40);
    const int64_t cols = 1 + rng.uniform_int(40);
    const int64_t m = 1 + rng.uniform_int(6);
    const double sparsity = rng.uniform01();
    const std::string ctx = "round " + std::to_string(round) + ": " +
                            std::to_string(rows) + "x" + std::to_string(cols) +
                            " sparsity=" + std::to_string(sparsity);
    const Tensor a = random_masked(Shape{rows, cols}, sparsity, rng);
    Tensor x(Shape{m, cols});
    x.fill_uniform(rng, -1.0F, 1.0F);
    expect_near_all(Csr::from_dense(a).spmm_t(x), naive_abt(x, a), 1e-4, "csr spmm_t " + ctx);

    const int64_t k = 1 + rng.uniform_int(5), stride = 1 + rng.uniform_int(3);
    const int64_t padding = rng.uniform_int(3), c = 1 + rng.uniform_int(4);
    const int64_t h = std::max<int64_t>(1, k - 2 * padding) + rng.uniform_int(8);
    const int64_t w = std::max<int64_t>(1, k - 2 * padding) + rng.uniform_int(8);
    const Tensor wt = random_masked(Shape{1 + rng.uniform_int(6), c, k, k}, sparsity, rng);
    const Tensor in = random_input(m, c, h, w, rng);
    const std::string conv_ctx = ctx + " conv k=" + std::to_string(k) +
                                 " s=" + std::to_string(stride) + " p=" +
                                 std::to_string(padding) + " in=" + in.shape().str();
    const Tensor got = Csr::from_weights(wt).conv2d(in, k, stride, padding);
    expect_near_all(got, naive_conv(in, wt, stride, padding), 1e-4, "csr conv2d " + conv_ctx);
    expect_bitwise(got, conv_forward(wt, stride, padding, in), "Conv2d::forward " + conv_ctx);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace ndsnn::sparse
