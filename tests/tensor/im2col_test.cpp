#include "tensor/im2col.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/random.hpp"

namespace ndsnn::tensor {
namespace {

ConvGeometry simple_geom(int64_t n, int64_t c, int64_t hw, int64_t k, int64_t stride,
                         int64_t pad) {
  ConvGeometry g;
  g.batch = n;
  g.in_channels = c;
  g.in_h = hw;
  g.in_w = hw;
  g.kernel_h = k;
  g.kernel_w = k;
  g.stride = stride;
  g.padding = pad;
  return g;
}

TEST(ConvGeometryTest, OutputDims) {
  const auto g = simple_geom(1, 3, 32, 3, 1, 1);
  EXPECT_EQ(g.out_h(), 32);
  EXPECT_EQ(g.out_w(), 32);
  const auto g2 = simple_geom(1, 3, 32, 3, 2, 1);
  EXPECT_EQ(g2.out_h(), 16);
}

TEST(ConvGeometryTest, FloorDivisionOutputForNonTilingStride) {
  // (5 - 2) / 2 + 1 = 2 outputs; the last input column is unused.
  auto g = simple_geom(1, 1, 5, 2, 2, 0);
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.out_h(), 2);
}

TEST(ConvGeometryTest, ValidationRejectsKernelTooLarge) {
  auto g = simple_geom(1, 1, 3, 5, 1, 0);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(Im2colTest, IdentityKernel1x1) {
  const auto g = simple_geom(2, 3, 4, 1, 1, 0);
  Rng rng(5);
  Tensor x(Shape{2, 3, 4, 4});
  x.fill_uniform(rng, -1.0F, 1.0F);
  const Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), Shape({3, 2 * 16}));
  // Column (n, y, x) row c must equal x[n, c, y, x].
  for (int64_t n = 0; n < 2; ++n) {
    for (int64_t c = 0; c < 3; ++c) {
      for (int64_t p = 0; p < 16; ++p) {
        EXPECT_FLOAT_EQ(cols.at(c, n * 16 + p), x.at4(n, c, p / 4, p % 4));
      }
    }
  }
}

TEST(Im2colTest, PaddingProducesZeros) {
  const auto g = simple_geom(1, 1, 2, 3, 1, 1);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 3, 4});
  const Tensor cols = im2col(x, g);
  // Top-left output position, kernel (0,0) reads padded zero.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0F);
  // Kernel center (1,1) at output (0,0) reads x[0,0] = 1.
  EXPECT_FLOAT_EQ(cols.at(4, 0), 1.0F);
}

TEST(Im2colTest, Col2imIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y -- the defining
  // property the conv backward relies on.
  const auto g = simple_geom(2, 3, 6, 3, 1, 1);
  Rng rng(17);
  Tensor x(Shape{2, 3, 6, 6});
  x.fill_uniform(rng, -1.0F, 1.0F);
  Tensor y(Shape{g.patch_rows(), g.patch_cols()});
  y.fill_uniform(rng, -1.0F, 1.0F);

  const Tensor ax = im2col(x, g);
  const Tensor aty = col2im(y, g);

  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < ax.numel(); ++i) lhs += static_cast<double>(ax.at(i)) * y.at(i);
  for (int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x.at(i)) * aty.at(i);
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2colTest, StridedGeometry) {
  const auto g = simple_geom(1, 1, 4, 2, 2, 0);
  Tensor x(Shape{1, 1, 4, 4});
  for (int64_t i = 0; i < 16; ++i) x.at(i) = static_cast<float>(i);
  const Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), Shape({4, 4}));
  // Output (0,0) patch = {0, 1, 4, 5}; output (1,1) patch = {10, 11, 14, 15}.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(cols.at(3, 0), 5.0F);
  EXPECT_FLOAT_EQ(cols.at(0, 3), 10.0F);
  EXPECT_FLOAT_EQ(cols.at(3, 3), 15.0F);
}

// Per-element references: the bounds check sits in the innermost loop,
// exactly as the lowering was first written. The library versions must
// match them bitwise, col2im including its per-pixel add order.
Tensor naive_im2col(const Tensor& input, const ConvGeometry& g) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor cols(Shape{g.patch_rows(), g.patch_cols()});
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        int64_t col = 0;
        for (int64_t n = 0; n < g.batch; ++n) {
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * g.stride + kh - g.padding;
            for (int64_t ox = 0; ox < ow; ++ox, ++col) {
              const int64_t ix = ox * g.stride + kw - g.padding;
              cols.at(row, col) = (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w)
                                      ? input.at4(n, c, iy, ix)
                                      : 0.0F;
            }
          }
        }
      }
    }
  }
  return cols;
}

Tensor naive_col2im(const Tensor& cols, const ConvGeometry& g) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  Tensor out(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const int64_t row = (c * g.kernel_h + kh) * g.kernel_w + kw;
        int64_t col = 0;
        for (int64_t n = 0; n < g.batch; ++n) {
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * g.stride + kh - g.padding;
            for (int64_t ox = 0; ox < ow; ++ox, ++col) {
              const int64_t ix = ox * g.stride + kw - g.padding;
              if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
                out.at4(n, c, iy, ix) += cols.at(row, col);
              }
            }
          }
        }
      }
    }
  }
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

/// Every valid geometry over strides 1-3, padding 0-3, kernels 1/3/5 and
/// square, non-square and tiny inputs (some kernel columns then see only
/// padding).
std::vector<ConvGeometry> sweep_geometries() {
  const int64_t sizes[][2] = {{7, 9}, {10, 6}, {8, 8}, {1, 4}, {3, 2}};
  std::vector<ConvGeometry> out;
  for (const auto& hw : sizes) {
    for (const int64_t k : {1, 3, 5}) {
      for (const int64_t stride : {1, 2, 3}) {
        for (const int64_t pad : {0, 1, 2, 3}) {
          ConvGeometry g;
          g.batch = 2;
          g.in_channels = 2;
          g.in_h = hw[0];
          g.in_w = hw[1];
          g.kernel_h = k;
          g.kernel_w = k;
          g.stride = stride;
          g.padding = pad;
          if (g.in_h + 2 * pad >= k && g.in_w + 2 * pad >= k) out.push_back(g);
        }
      }
    }
  }
  return out;
}

std::string describe(const ConvGeometry& g) {
  return std::to_string(g.in_h) + "x" + std::to_string(g.in_w) + " k" +
         std::to_string(g.kernel_h) + " s" + std::to_string(g.stride) + " p" +
         std::to_string(g.padding);
}

TEST(Im2colTest, MatchesPerElementReferenceBitwise) {
  const std::vector<ConvGeometry> geoms = sweep_geometries();
  ASSERT_GT(geoms.size(), 150U);
  uint64_t seed = 100;
  for (const ConvGeometry& g : geoms) {
    Rng rng(seed++);
    Tensor x(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
    x.fill_uniform(rng, -1.0F, 1.0F);
    x.at(0) = -0.0F;  // signed zeros must survive the copy
    EXPECT_TRUE(bitwise_equal(im2col(x, g), naive_im2col(x, g))) << describe(g);
  }
}

TEST(Im2colTest, Col2imMatchesPerElementReferenceBitwise) {
  uint64_t seed = 500;
  for (const ConvGeometry& g : sweep_geometries()) {
    Rng rng(seed++);
    Tensor cols(Shape{g.patch_rows(), g.patch_cols()});
    // A wide value range makes the float sums order-sensitive, so a
    // changed add order would show.
    cols.fill_uniform(rng, -1.0F, 1.0F);
    for (int64_t i = 0; i < cols.numel(); i += 3) cols.at(i) *= 1.0e6F;
    EXPECT_TRUE(bitwise_equal(col2im(cols, g), naive_col2im(cols, g))) << describe(g);
    // One patch row of one sample at a time, rows ascending per sample,
    // from that row alone.
    Tensor per_row(Shape{g.batch, g.in_channels, g.in_h, g.in_w});
    const int64_t plane = g.out_h() * g.out_w();
    const int64_t sample_size = g.in_channels * g.in_h * g.in_w;
    std::vector<float> row(static_cast<std::size_t>(plane));
    for (int64_t n = 0; n < g.batch; ++n) {
      for (int64_t r = 0; r < g.patch_rows(); ++r) {
        for (int64_t p = 0; p < plane; ++p) {
          row[static_cast<std::size_t>(p)] = cols.at(r, n * plane + p);
        }
        col2im_row_add(row.data(), g, r, per_row.data() + n * sample_size);
      }
    }
    EXPECT_TRUE(bitwise_equal(per_row, naive_col2im(cols, g))) << "per row: " << describe(g);
  }
}

TEST(Im2colTest, ShapeMismatchThrows) {
  const auto g = simple_geom(1, 2, 4, 3, 1, 1);
  Tensor x(Shape{1, 3, 4, 4});
  EXPECT_THROW((void)im2col(x, g), std::invalid_argument);
}

}  // namespace
}  // namespace ndsnn::tensor
