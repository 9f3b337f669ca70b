// Bitwise sweep of the cache-blocked conv GEMMs (tensor/conv_gemm.hpp)
// against the whole-matrix GEMMs they replace: tensor::im2col of the
// whole batch, then matmul (forward), matmul_nt_acc (dense dW) or
// matmul_nt_masked_acc (masked dW). The plan's dense conv kernel
// (runtime::ConvOp) is checked against the same forward reference.
//
// Cells: kernel {1, 3, 5} x stride {1, 2} x padding {0, k/2} x output
// plane {2x2, 16x16, 32x32} x input channels {3, 16}, each at batch 1, at
// two whole staged blocks (the last block ends exactly on the batch) and
// at two blocks plus one sample (the last block is cut short mid-batch),
// on every tier this host runs. The channel axis covers both staging
// routes: one-sample blocks at stride 1 read their patch rows in place,
// every other block is copied out. The forward and ConvOp write into one
// output buffer kept across all cells, as the plan's buffers are kept
// across calls, so each cell also checks that a reused, differently
// shaped, dirty buffer gives the fresh bits. Every cell is checked;
// nothing here is timed.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "nn/conv2d.hpp"
#include "runtime/ops/conv_op.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "../testing_env.hpp"

namespace ndsnn::runtime {
namespace {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;
using util::simd::Tier;

// Odd, so the AVX2 dW bodies run a lone row and a padded 4-row group.
constexpr int64_t kFilters = 7;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

std::vector<Tier> tiers() {
  std::vector<Tier> out = {Tier::kScalar};
  if (util::simd::detected() == Tier::kAvx2) out.push_back(Tier::kAvx2);
  return out;
}

/// Values that make every float and double chain order-sensitive: a wide
/// range, exact zeros of both signs.
Tensor random_values(Shape shape, tensor::Rng& rng) {
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  for (int64_t i = 0; i < t.numel(); i += 7) t.at(i) *= 4096.0F;
  for (int64_t i = 3; i < t.numel(); i += 11) t.at(i) = (i % 2 == 0) ? 0.0F : -0.0F;
  return t;
}

/// [F, N*plane] -> [N, F, OH, OW].
Tensor to_nchw(const Tensor& yflat, const ConvGeometry& g) {
  const int64_t f = yflat.dim(0), plane = g.out_h() * g.out_w();
  Tensor out(Shape{g.batch, f, g.out_h(), g.out_w()});
  for (int64_t n = 0; n < g.batch; ++n) {
    for (int64_t ff = 0; ff < f; ++ff) {
      std::memcpy(out.data() + (n * f + ff) * plane, yflat.data() + ff * g.patch_cols() + n * plane,
                  static_cast<std::size_t>(plane) * sizeof(float));
    }
  }
  return out;
}

/// [N, F, OH, OW] -> [F, N*plane].
Tensor to_rows(const Tensor& gy) {
  const int64_t n = gy.dim(0), f = gy.dim(1), plane = gy.dim(2) * gy.dim(3);
  Tensor out(Shape{f, n * plane});
  for (int64_t nn = 0; nn < n; ++nn) {
    for (int64_t ff = 0; ff < f; ++ff) {
      std::memcpy(out.data() + ff * n * plane + nn * plane, gy.data() + (nn * f + ff) * plane,
                  static_cast<std::size_t>(plane) * sizeof(float));
    }
  }
  return out;
}

struct Cell {
  int64_t channels, k, stride, padding, plane_side, batch;
};

ConvGeometry geometry_of(const Cell& c) {
  ConvGeometry g;
  g.batch = c.batch;
  g.in_channels = c.channels;
  // The input side whose output side is plane_side.
  g.in_h = g.in_w = (c.plane_side - 1) * c.stride + c.k - 2 * c.padding;
  g.kernel_h = g.kernel_w = c.k;
  g.stride = c.stride;
  g.padding = c.padding;
  return g;
}

std::vector<Cell> sweep_cells() {
  std::vector<Cell> cells;
  for (const int64_t channels : {3, 16}) {
    for (const int64_t k : {1, 3, 5}) {
      for (const int64_t stride : {1, 2}) {
        std::vector<int64_t> paddings = {0};
        if (k / 2 > 0) paddings.push_back(k / 2);
        for (const int64_t padding : paddings) {
          for (const int64_t side : {2, 16, 32}) {
            Cell c{channels, k, stride, padding, side, 1};
            const int64_t per_block = tensor::conv_block_samples(geometry_of(c));
            for (const int64_t batch : {int64_t{1}, 2 * per_block, 2 * per_block + 1}) {
              c.batch = batch;
              cells.push_back(c);
            }
          }
        }
      }
    }
  }
  return cells;
}

/// A [kFilters, C*K*K] keep mask with about `density` of its bits set.
std::vector<uint8_t> random_keep(int64_t size, double density, tensor::Rng& rng) {
  std::vector<uint8_t> keep(static_cast<std::size_t>(size));
  for (auto& bit : keep) bit = rng.uniform(0.0F, 1.0F) < density ? 1 : 0;
  return keep;
}

TEST(ConvGemmSweepTest, BlockedConvMatchesWholeMatrixBitwise) {
  const std::vector<Cell> cells = sweep_cells();
  ASSERT_GT(cells.size(), 80U);
  tensor::Rng rng(difftest::env_seed() ^ 0xC0417ULL);
  int64_t split_mid_batch = 0, one_sample_blocks = 0;
  Tensor y;            // conv2d_gemm's output, kept across cells
  Activation op_out;   // ConvOp's output, kept across cells
  for (const Cell& cell : cells) {
    SCOPED_TRACE(testing::Message() << "c" << cell.channels << " k" << cell.k << " s"
                                    << cell.stride << " p" << cell.padding << " out "
                                    << cell.plane_side << "x" << cell.plane_side << " batch "
                                    << cell.batch);
    const ConvGeometry g = geometry_of(cell);
    const int64_t per_block = tensor::conv_block_samples(g);
    if (per_block > 1 && cell.batch % per_block != 0) ++split_mid_batch;
    if (per_block == 1 && cell.stride == 1) ++one_sample_blocks;

    const Tensor x = random_values(Shape{g.batch, cell.channels, g.in_h, g.in_w}, rng);
    Tensor wmat = random_values(Shape{kFilters, g.patch_rows()}, rng);
    for (int64_t i = 0; i < wmat.numel(); i += 4) wmat.at(i) = 0.0F;  // pruned weights
    const Tensor gy = random_values(Shape{g.batch, kFilters, g.out_h(), g.out_w()}, rng);
    const Tensor dw0 = random_values(Shape{kFilters, g.patch_rows()}, rng);
    const Tensor cols = tensor::im2col(x, g);
    const Tensor gy_rows = to_rows(gy);

    nn::Conv2d layer_src(cell.channels, kFilters, cell.k, cell.stride, cell.padding, rng,
                         /*bias=*/true);
    layer_src.weight() = wmat.reshaped(layer_src.weight().shape());
    for (const nn::ParamRef& p : layer_src.params()) {
      if (p.name == "bias") p.value->fill_uniform(rng, -1.0F, 1.0F);
    }

    for (const Tier tier : tiers()) {
      SCOPED_TRACE(util::simd::name(tier));
      const Tensor y_ref = to_nchw(tensor::matmul(wmat, cols, tier), g);
      tensor::conv2d_gemm(x, wmat, g, y, tier);
      EXPECT_TRUE(bitwise_equal(y, y_ref)) << "forward";

      Tensor dw_ref = dw0;
      tensor::matmul_nt_acc(gy_rows, cols, dw_ref, tier);
      Tensor dw = dw0;
      tensor::conv2d_weight_grad(gy, x, g, nullptr, dw, tier);
      EXPECT_TRUE(bitwise_equal(dw, dw_ref)) << "dense dW";

      for (const double density : {1.0, 0.3, 0.05}) {
        const std::vector<uint8_t> keep = random_keep(dw0.numel(), density, rng);
        Tensor masked_ref = dw0;
        tensor::matmul_nt_masked_acc(gy_rows, cols, keep.data(), masked_ref, tier);
        Tensor masked = dw0;
        tensor::conv2d_weight_grad(gy, x, g, keep.data(), masked, tier);
        EXPECT_TRUE(bitwise_equal(masked, masked_ref)) << "masked dW at density " << density;
      }

      // The plan's dense conv resolves its tier when it is built.
      const difftest::TierGuard guard(tier);
      const ConvOp op(layer_src, Kernel::kDense, sparse::Precision::kFp32, /*event=*/false,
                      CompileOptions{});
      Tensor op_ref = y_ref;
      tensor::add_channel_bias_(op_ref, layer_src.bias());
      op.run_into(Activation(x), op_out);
      EXPECT_TRUE(bitwise_equal(op_out.tensor, op_ref)) << "ConvOp dense";
    }
  }
  // The 2x2 planes stage many samples per block, so some batches end
  // inside a block; the wide planes stage one sample per block.
  EXPECT_GT(split_mid_batch, 0);
  EXPECT_GT(one_sample_blocks, 0);
}

TEST(ConvGemmSweepTest, RejectsMismatchedShapes) {
  ConvGeometry g;
  g.batch = 2;
  g.in_channels = 3;
  g.in_h = g.in_w = 6;
  g.kernel_h = g.kernel_w = 3;
  const Tensor x(Shape{2, 3, 6, 6});
  Tensor y;
  EXPECT_THROW(tensor::conv2d_gemm(x, Tensor(Shape{4, 26}), g, y), std::invalid_argument);
  EXPECT_THROW(tensor::conv2d_gemm(Tensor(Shape{2, 3, 6, 5}), Tensor(Shape{4, 27}), g, y),
               std::invalid_argument);
  Tensor dw(Shape{4, 27});
  EXPECT_THROW(tensor::conv2d_weight_grad(Tensor(Shape{2, 4, 3, 3}), x, g, nullptr, dw),
               std::invalid_argument);
  Tensor dw_bad(Shape{5, 27});
  EXPECT_THROW(tensor::conv2d_weight_grad(Tensor(Shape{2, 4, 4, 4}), x, g, nullptr, dw_bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace ndsnn::runtime
