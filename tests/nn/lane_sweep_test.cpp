// Lane sweep: every training kernel that splits its outputs over a
// util::ThreadPool runs on pools of 1, 2, 3 and 4 lanes and must equal
// its inline run (null pool) bit for bit: the conv forward, the dense and
// masked weight gradients, the conv input gradient, BatchNorm, LIF, PLIF
// (with its leak gradient), ALIF, AvgPool and Linear. A lane may take a
// range of outputs, never part of one output's accumulation chain, so any
// lane count gives the same bits.
//
// Shapes are ragged (odd planes, 3 input channels, 6 filters, a batch of
// one) and large enough that every kernel passes its grain and actually
// splits. Each layer runs two steps on the same output tensors, so a
// kept buffer that leaked a value of the previous step would show.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "tensor/conv_gemm.hpp"
#include "tensor/random.hpp"
#include "../testing_env.hpp"

namespace ndsnn::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

Tensor random_tensor(const Shape& shape, uint64_t seed, float zero_fraction = 0.0F) {
  Rng rng(seed);
  Tensor t(shape);
  t.fill_uniform(rng, -1.0F, 1.0F);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.uniform(0.0F, 1.0F) < zero_fraction) t.at(i) = 0.0F;
  }
  return t;
}

/// Pools of 1..4 lanes, built once per test binary.
std::vector<std::unique_ptr<util::ThreadPool>>& pools() {
  static std::vector<std::unique_ptr<util::ThreadPool>> all = [] {
    std::vector<std::unique_ptr<util::ThreadPool>> p;
    for (int64_t lanes = 1; lanes <= 4; ++lanes) {
      p.push_back(std::make_unique<util::ThreadPool>(lanes));
    }
    return p;
  }();
  return all;
}

/// What one training step of a layer leaves behind.
struct StepOut {
  Tensor y, gx;
  std::vector<Tensor> grads;
};

/// Two steps of `layer` (forward with training, backward) on (x[s],
/// gy[s]), into the same output tensors; returns each step's results.
template <class L>
std::vector<StepOut> two_steps(L& layer, const std::vector<Tensor>& x,
                               const std::vector<Tensor>& gy, util::ThreadPool* pool) {
  std::vector<StepOut> steps;
  Tensor y, gx;
  for (std::size_t s = 0; s < x.size(); ++s) {
    layer.reset_state();
    layer.forward_into(x[s], y, /*training=*/true, pool);
    layer.backward_into(gy[s], gx, pool);
    StepOut out{y, gx, {}};
    for (const ParamRef& p : layer.params()) out.grads.push_back(*p.grad);
    steps.push_back(std::move(out));
  }
  return steps;
}

/// Runs `make()`'s layer inline and on every pool; all must agree.
template <class Make>
void expect_lane_invariant(Make make, const std::vector<Tensor>& x, const std::vector<Tensor>& gy,
                           const char* what) {
  auto ref_layer = make();
  const std::vector<StepOut> ref = two_steps(*ref_layer, x, gy, nullptr);
  for (const auto& pool : pools()) {
    auto layer = make();
    const std::vector<StepOut> got = two_steps(*layer, x, gy, pool.get());
    for (std::size_t s = 0; s < ref.size(); ++s) {
      SCOPED_TRACE(std::string(what) + ", " + std::to_string(pool->lanes()) + " lanes, step " +
                   std::to_string(s));
      EXPECT_TRUE(bitwise_equal(got[s].y, ref[s].y)) << "forward";
      EXPECT_TRUE(bitwise_equal(got[s].gx, ref[s].gx)) << "input gradient";
      ASSERT_EQ(got[s].grads.size(), ref[s].grads.size());
      for (std::size_t p = 0; p < ref[s].grads.size(); ++p) {
        EXPECT_TRUE(bitwise_equal(got[s].grads[p], ref[s].grads[p])) << "param grad " << p;
      }
    }
  }
}

std::vector<Tensor> two_inputs(const Shape& shape, uint64_t seed, float zero_fraction = 0.0F) {
  return {random_tensor(shape, seed, zero_fraction), random_tensor(shape, seed + 1, zero_fraction)};
}

TEST(LaneSweepTest, ConvGemmAndWeightGradMatchInline) {
  // conv1-like: 3 channels, 6 filters, ragged plane; and a batch of one.
  for (const int64_t batch : {int64_t{33}, int64_t{1}}) {
    const Tensor x = random_tensor(Shape{batch, 3, 17, 15}, 11, 0.6F);
    const auto g = tensor::ConvGeometry::of(x, 5, 1, 2);
    const Tensor w = random_tensor(Shape{6, g.patch_rows()}, 12, 0.7F);
    const Tensor gy = random_tensor(Shape{batch, 6, g.out_h(), g.out_w()}, 13);
    std::vector<uint8_t> keep(static_cast<std::size_t>(6 * g.patch_rows()));
    Rng rng(14);
    for (auto& k : keep) k = rng.uniform(0.0F, 1.0F) < 0.3F ? 1 : 0;
    Tensor y_ref, dw_ref(Shape{6, g.patch_rows()}), masked_ref(Shape{6, g.patch_rows()});
    tensor::conv2d_gemm(x, w, g, y_ref, nullptr);
    tensor::conv2d_weight_grad(gy, x, g, nullptr, dw_ref, nullptr);
    tensor::conv2d_weight_grad(gy, x, g, keep.data(), masked_ref, nullptr);
    for (const auto& pool : pools()) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", " + std::to_string(pool->lanes()) +
                   " lanes");
      Tensor y = random_tensor(y_ref.shape(), 15);  // stale values must not survive
      Tensor dw(Shape{6, g.patch_rows()}), masked(Shape{6, g.patch_rows()});
      tensor::conv2d_gemm(x, w, g, y, pool.get());
      tensor::conv2d_weight_grad(gy, x, g, nullptr, dw, pool.get());
      tensor::conv2d_weight_grad(gy, x, g, keep.data(), masked, pool.get());
      EXPECT_TRUE(bitwise_equal(y, y_ref)) << "forward";
      EXPECT_TRUE(bitwise_equal(dw, dw_ref)) << "dense dW";
      EXPECT_TRUE(bitwise_equal(masked, masked_ref)) << "masked dW";
    }
  }
}

TEST(LaneSweepTest, WeightGradSplitsStridedAndWideConvs) {
  // Stride 2 (copied patch blocks) with 16 filters over 6 channels, and
  // a wide 1x1 conv whose rows span many 16-row tiles.
  struct Case {
    Shape input;
    int64_t filters, kernel, stride, padding;
  };
  const Case cases[] = {{Shape{33, 6, 13, 11}, 16, 3, 2, 1}, {Shape{64, 70, 9, 7}, 3, 1, 1, 0}};
  uint64_t seed = 20;
  for (const Case& c : cases) {
    const Tensor x = random_tensor(c.input, seed++, 0.5F);
    const auto g = tensor::ConvGeometry::of(x, c.kernel, c.stride, c.padding);
    const Tensor gy = random_tensor(Shape{g.batch, c.filters, g.out_h(), g.out_w()}, seed++);
    Tensor ref(Shape{c.filters, g.patch_rows()});
    tensor::conv2d_weight_grad(gy, x, g, nullptr, ref, nullptr);
    for (const auto& pool : pools()) {
      Tensor dw(Shape{c.filters, g.patch_rows()});
      tensor::conv2d_weight_grad(gy, x, g, nullptr, dw, pool.get());
      EXPECT_TRUE(bitwise_equal(dw, ref)) << c.input.str() << ", " << pool->lanes() << " lanes";
    }
  }
}

TEST(LaneSweepTest, Conv2dLayerMatchesInline) {
  for (const int64_t batch : {int64_t{33}, int64_t{1}}) {
    const auto x = two_inputs(Shape{batch, 3, 17, 15}, 30, 0.6F);
    const auto gy = two_inputs(Shape{batch, 6, 17, 15}, 32);
    expect_lane_invariant(
        [] {
          Rng rng(34);
          auto conv = std::make_unique<Conv2d>(3, 6, 5, 1, 2, rng, /*bias=*/true);
          for (int64_t i = 0; i < conv->weight().numel(); i += 3) conv->weight().at(i) = 0.0F;
          return conv;
        },
        x, gy, batch == 1 ? "conv, batch 1" : "conv");
  }
}

TEST(LaneSweepTest, Conv2dMaskedWeightGradMatchesInline) {
  const auto x = two_inputs(Shape{33, 6, 15, 13}, 40, 0.5F);
  const auto gy = two_inputs(Shape{33, 16, 15, 13}, 42);
  expect_lane_invariant(
      [] {
        Rng rng(44);
        auto conv = std::make_unique<Conv2d>(6, 16, 5, 1, 2, rng);
        std::vector<uint8_t> keep(static_cast<std::size_t>(conv->weight().numel()));
        for (std::size_t i = 0; i < keep.size(); ++i) {
          keep[i] = rng.uniform(0.0F, 1.0F) < 0.1F ? 1 : 0;
          if (keep[i] == 0) conv->weight().at(static_cast<int64_t>(i)) = 0.0F;
        }
        conv->params()[0].grad_mask->keep_only(keep);
        return conv;
      },
      x, gy, "masked conv");
}

TEST(LaneSweepTest, BatchNormMatchesInline) {
  const auto x = two_inputs(Shape{66, 6, 17, 15}, 50);
  const auto gy = two_inputs(Shape{66, 6, 17, 15}, 52);
  expect_lane_invariant([] { return std::make_unique<BatchNorm2d>(6); }, x, gy, "batchnorm");
  // Running statistics and the inference forward too.
  const auto run = [&](util::ThreadPool* pool) {
    BatchNorm2d bn(6);
    Tensor y;
    bn.forward_into(x[0], y, /*training=*/true, pool);
    bn.forward_into(x[1], y, /*training=*/false, pool);
    return std::vector<Tensor>{bn.running_mean(), bn.running_var(), y};
  };
  const std::vector<Tensor> ref = run(nullptr);
  for (const auto& pool : pools()) {
    const std::vector<Tensor> got = run(pool.get());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(got[i], ref[i])) << i << ", " << pool->lanes() << " lanes";
    }
  }
}

TEST(LaneSweepTest, LifMatchesInline) {
  snn::LifConfig config;
  config.alpha = 0.75F;
  for (const bool detach : {true, false}) {
    config.detach_reset = detach;
    const auto x = two_inputs(Shape{66, 8, 17, 15}, 60);
    const auto gy = two_inputs(Shape{66, 8, 17, 15}, 62);
    expect_lane_invariant([&] { return std::make_unique<LifActivation>(config, 2); }, x, gy,
                          detach ? "lif" : "lif, reset attached");
    LifActivation ref(config, 3), got(config, 3);
    Tensor y;
    const Tensor x3 = random_tensor(Shape{99, 8, 17, 15}, 64);
    ref.forward_into(x3, y, true, nullptr);
    for (const auto& pool : pools()) {
      got.forward_into(x3, y, true, pool.get());
      EXPECT_EQ(got.last_spike_rate(), ref.last_spike_rate()) << pool->lanes() << " lanes";
    }
  }
}

TEST(LaneSweepTest, PlifMatchesInline) {
  // A leak moved off its initial value through params(), as SGD moves
  // it; the leak gradient is a parameter gradient of the sweep.
  snn::PlifConfig config;
  config.initial_alpha = 0.3F;
  for (const bool detach : {true, false}) {
    config.detach_reset = detach;
    const auto x = two_inputs(Shape{66, 8, 17, 15}, 66);
    const auto gy = two_inputs(Shape{66, 8, 17, 15}, 68);
    expect_lane_invariant(
        [&] {
          auto plif = std::make_unique<PlifActivation>(config, 2);
          plif->params()[0].value->at(0) += 1.25F;
          return plif;
        },
        x, gy, detach ? "plif" : "plif, reset attached");
  }
}

TEST(LaneSweepTest, AlifMatchesInline) {
  snn::AlifConfig config;
  config.alpha = 0.75F;
  config.threshold = 0.3F;  // fires often enough that the adaptation matters
  const auto x = two_inputs(Shape{66, 8, 17, 15}, 67);
  const auto gy = two_inputs(Shape{66, 8, 17, 15}, 69);
  expect_lane_invariant([&] { return std::make_unique<AlifActivation>(config, 2); }, x, gy,
                        "alif");
  AlifActivation ref(config, 3), got(config, 3);
  Tensor y;
  const Tensor x3 = random_tensor(Shape{99, 8, 17, 15}, 65);
  ref.forward_into(x3, y, true, nullptr);
  EXPECT_GT(ref.last_spike_rate(), 0.0);
  for (const auto& pool : pools()) {
    got.forward_into(x3, y, true, pool.get());
    EXPECT_EQ(got.last_spike_rate(), ref.last_spike_rate()) << pool->lanes() << " lanes";
  }
}

TEST(LaneSweepTest, AvgPoolMatchesInline) {
  const auto x = two_inputs(Shape{66, 16, 16, 14}, 70);
  const auto gy = two_inputs(Shape{66, 16, 8, 7}, 72);
  expect_lane_invariant([] { return std::make_unique<AvgPool2d>(2); }, x, gy, "avgpool");
  const auto x3 = two_inputs(Shape{33, 16, 18, 15}, 74);
  const auto gy3 = two_inputs(Shape{33, 16, 6, 5}, 76);
  expect_lane_invariant([] { return std::make_unique<AvgPool2d>(3); }, x3, gy3, "avgpool k=3");
}

TEST(LaneSweepTest, LinearMatchesInline) {
  const auto x = two_inputs(Shape{66, 999}, 80, 0.8F);
  const auto gy = two_inputs(Shape{66, 120}, 82);
  // A sparse weight takes the input-gradient walk, a dense one the GEMM.
  for (const float density : {0.1F, 1.0F}) {
    expect_lane_invariant(
        [density] {
          Rng rng(84);
          auto fc = std::make_unique<Linear>(999, 120, rng);
          for (int64_t i = 0; i < fc->weight().numel(); ++i) {
            if (rng.uniform(0.0F, 1.0F) >= density) fc->weight().at(i) = 0.0F;
          }
          return fc;
        },
        x, gy, density < 1.0F ? "linear, sparse dx" : "linear, dense dx");
  }
}

}  // namespace
}  // namespace ndsnn::nn
