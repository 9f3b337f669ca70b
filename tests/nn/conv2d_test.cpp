#include "nn/conv2d.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

TEST(Conv2dTest, IdentityKernelReproducesInput) {
  Rng rng(1);
  Conv2d layer(1, 1, 1, 1, 0, rng);
  layer.weight() = Tensor(Shape{1, 1, 1, 1}, std::vector<float>{1.0F});
  Tensor x(Shape{1, 1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) x.at(i) = static_cast<float>(i);
  const Tensor y = layer.forward(x, true);
  ASSERT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y.at(i), x.at(i));
}

TEST(Conv2dTest, BoxKernelComputesNeighborhoodSums) {
  Rng rng(2);
  Conv2d layer(1, 1, 3, 1, 1, rng);
  layer.weight() = Tensor(Shape{1, 1, 3, 3}, std::vector<float>(9, 1.0F));
  Tensor x(Shape{1, 1, 3, 3}, 1.0F);
  const Tensor y = layer.forward(x, true);
  // Center sees all 9 ones; corners see 4.
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 9.0F);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 4.0F);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 1), 6.0F);
}

TEST(Conv2dTest, MultiChannelAccumulation) {
  Rng rng(3);
  Conv2d layer(2, 1, 1, 1, 0, rng);
  layer.weight() = Tensor(Shape{1, 2, 1, 1}, std::vector<float>{2.0F, 3.0F});
  Tensor x(Shape{1, 2, 2, 2});
  x.fill(1.0F);
  const Tensor y = layer.forward(x, true);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y.at(i), 5.0F);
}

TEST(Conv2dTest, OutputShapeWithStride) {
  Rng rng(4);
  Conv2d layer(3, 8, 3, 2, 1, rng);
  Tensor x(Shape{2, 3, 8, 8});
  const Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 8, 4, 4}));
}

TEST(Conv2dTest, BatchOrderPreserved) {
  // Regression test for the GEMM-output transpose: distinct batch entries
  // must not be interleaved.
  Rng rng(5);
  Conv2d layer(1, 1, 1, 1, 0, rng);
  layer.weight() = Tensor(Shape{1, 1, 1, 1}, std::vector<float>{1.0F});
  Tensor x(Shape{2, 1, 2, 2}, std::vector<float>{1, 1, 1, 1, 9, 9, 9, 9});
  const Tensor y = layer.forward(x, true);
  EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.0F);
  EXPECT_FLOAT_EQ(y.at4(1, 0, 0, 0), 9.0F);
}

TEST(Conv2dTest, WrongChannelCountThrows) {
  Rng rng(6);
  Conv2d layer(3, 4, 3, 1, 1, rng);
  Tensor x(Shape{1, 2, 8, 8});
  EXPECT_THROW((void)layer.forward(x, true), std::invalid_argument);
}

TEST(Conv2dTest, PrunableWeightExposed) {
  Rng rng(7);
  Conv2d layer(2, 4, 3, 1, 1, rng, /*bias=*/true);
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2U);
  EXPECT_TRUE(params[0].prunable);
  EXPECT_FALSE(params[1].prunable);
  EXPECT_EQ(params[0].value->shape(), Shape({4, 2, 3, 3}));
}

TEST(Conv2dTest, DefaultHasNoBias) {
  Rng rng(8);
  Conv2d layer(2, 4, 3, 1, 1, rng);
  EXPECT_EQ(layer.params().size(), 1U);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

Tensor random_tensor(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

tensor::ConvGeometry geometry_of(const Conv2d& layer, const Tensor& input) {
  tensor::ConvGeometry g;
  g.batch = input.dim(0);
  g.in_channels = layer.in_channels();
  g.in_h = input.dim(2);
  g.in_w = input.dim(3);
  g.kernel_h = g.kernel_w = layer.kernel();
  g.stride = layer.stride();
  g.padding = layer.padding();
  return g;
}

/// The forward as one GEMM over the whole patch matrix, W · im2col(x),
/// transposed to [M, F, OH, OW], plus the bias.
Tensor whole_matrix_output(const Conv2d& layer, const Tensor& input) {
  const tensor::ConvGeometry g = geometry_of(layer, input);
  const int64_t f = layer.out_channels(), m = g.batch, plane = g.out_h() * g.out_w();
  const Tensor wmat = layer.weight().reshaped(Shape{f, g.patch_rows()});
  const Tensor yflat = tensor::matmul(wmat, tensor::im2col(input, g));
  Tensor out(Shape{m, f, g.out_h(), g.out_w()});
  for (int64_t n = 0; n < m; ++n) {
    for (int64_t ff = 0; ff < f; ++ff) {
      for (int64_t p = 0; p < plane; ++p) {
        out.at((n * f + ff) * plane + p) = yflat.at(ff, n * plane + p);
      }
    }
  }
  if (layer.has_bias()) tensor::add_channel_bias_(out, layer.bias());
  return out;
}

/// col2im(Wᵀ · gy) over the whole [C*K*K, M*OH*OW] gradient matrix.
Tensor whole_matrix_input_grad(const Conv2d& layer, const Tensor& grad_output,
                               const Tensor& input) {
  const tensor::ConvGeometry g = geometry_of(layer, input);
  const int64_t m = grad_output.dim(0), f = grad_output.dim(1);
  const int64_t plane = grad_output.dim(2) * grad_output.dim(3);
  Tensor gy(Shape{f, m * plane});
  for (int64_t n = 0; n < m; ++n) {
    for (int64_t ff = 0; ff < f; ++ff) {
      for (int64_t p = 0; p < plane; ++p) {
        gy.at(ff, n * plane + p) = grad_output.at((n * f + ff) * plane + p);
      }
    }
  }
  const Tensor wmat = layer.weight().reshaped(Shape{f, g.patch_rows()});
  return tensor::col2im(tensor::matmul_tn(wmat, gy), g);
}

// One layer driven through a sequence of steps, reset_state() between
// them, keeps its saved-input storage wherever the shape repeats. Every
// step must match a freshly built twin with the same parameters bit
// for bit: outputs, dW, db and dx. The block-staged output and the
// per-patch-row input gradient must also equal the whole-matrix GEMMs
// bit for bit.
TEST(Conv2dTest, ReusedWorkspaceMatchesFreshLayerBitwise) {
  struct Config {
    int64_t c, f, k, stride, padding;
    bool bias;
  };
  const std::vector<Config> configs = {
      {3, 4, 3, 2, 1, true}, {2, 5, 5, 1, 2, false}, {2, 3, 3, 2, 1, false},
      {3, 2, 3, 1, 0, true},
      // 2x2 output planes: several samples per staged block.
      {2, 3, 7, 2, 0, true}};
  struct Step {
    int64_t batch;
    bool training;
  };
  // A smaller batch mid-sequence and back, and eval forwards between
  // training steps, at the training batch and at another one.
  const std::vector<Step> steps = {{6, true}, {6, true}, {6, false}, {6, true}, {3, true},
                                   {6, true}, {4, false}, {6, true}, {6, true}};
  for (const Config& cfg : configs) {
    SCOPED_TRACE(testing::Message() << "c=" << cfg.c << " f=" << cfg.f << " k=" << cfg.k
                                    << " s=" << cfg.stride << " p=" << cfg.padding
                                    << " bias=" << cfg.bias);
    Rng init(11);
    Conv2d reused(cfg.c, cfg.f, cfg.k, cfg.stride, cfg.padding, init, cfg.bias);
    Rng data(12);
    // Pruned weights exercise the zero-skipping GEMM paths.
    for (int64_t i = 0; i < reused.weight().numel(); i += 3) reused.weight().at(i) = 0.0F;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "step " << s);
      const Step& step = steps[s];
      // Parameters move between steps, as under SGD.
      for (int64_t i = 1; i < reused.weight().numel(); i += 3) {
        reused.weight().at(i) += 0.01F * static_cast<float>(s);
      }
      const std::vector<ParamRef> rp = reused.params();
      if (cfg.bias) {
        for (int64_t i = 0; i < cfg.f; ++i) rp[1].value->at(i) = 0.1F * static_cast<float>(i + s);
      }
      Rng twin_init(99);
      Conv2d fresh(cfg.c, cfg.f, cfg.k, cfg.stride, cfg.padding, twin_init, cfg.bias);
      const std::vector<ParamRef> fp = fresh.params();
      for (std::size_t i = 0; i < rp.size(); ++i) *fp[i].value = *rp[i].value;

      const Tensor x = random_tensor(Shape{step.batch, cfg.c, 9, 9}, data);
      reused.reset_state();
      zero_grads(rp);
      const Tensor y_reused = reused.forward(x, step.training);
      const Tensor y_fresh = fresh.forward(x, step.training);
      EXPECT_TRUE(bitwise_equal(y_reused, y_fresh)) << "output";
      EXPECT_TRUE(bitwise_equal(y_reused, whole_matrix_output(reused, x)))
          << "output vs W·im2col(x)";
      if (!step.training) continue;

      const Tensor gy = random_tensor(y_fresh.shape(), data);
      const Tensor dx_reused = reused.backward(gy);
      const Tensor dx_fresh = fresh.backward(gy);
      EXPECT_TRUE(bitwise_equal(dx_reused, dx_fresh)) << "dx";
      EXPECT_TRUE(bitwise_equal(dx_reused, whole_matrix_input_grad(reused, gy, x)))
          << "dx vs col2im(Wᵀ·gy)";
      for (std::size_t i = 0; i < rp.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(*rp[i].grad, *fp[i].grad)) << rp[i].name;
      }
    }
  }
}

}  // namespace
}  // namespace ndsnn::nn
