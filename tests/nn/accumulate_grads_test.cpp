// Layer::accumulate_grads is backward() without the input gradient. The
// parameter gradients it leaves must be bitwise those of a full
// backward(), for the layers that override it (Conv2d, Linear), for a
// Sequential that calls it on layer 0 only, and for
// SpikingNetwork::train_step, which uses it on its leaf input.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/models/zoo.hpp"
#include "opt/sgd.hpp"
#include "snn/encoder.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor random_tensor(Shape shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  t.fill_uniform(rng, -1.0F, 1.0F);
  return t;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

void expect_same_grads(Layer& full, Layer& lean) {
  const std::vector<ParamRef> pf = full.params();
  const std::vector<ParamRef> pl = lean.params();
  ASSERT_EQ(pf.size(), pl.size());
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*pf[i].grad, *pl[i].grad)) << pf[i].name;
  }
}

/// Two forward/backward rounds without zeroing, so the grads are
/// checked as accumulators, not just as the first product.
void check_twins(Layer& full, Layer& lean, const Tensor& input, const Shape& out_shape) {
  for (uint64_t round = 0; round < 2; ++round) {
    const Tensor yf = full.forward(input, /*training=*/true);
    const Tensor yl = lean.forward(input, /*training=*/true);
    ASSERT_TRUE(bitwise_equal(yf, yl));
    ASSERT_EQ(yf.shape(), out_shape);
    const Tensor gy = random_tensor(out_shape, 100 + round);
    (void)full.backward(gy);
    lean.accumulate_grads(gy, nullptr);
    expect_same_grads(full, lean);
  }
}

TEST(AccumulateGradsTest, Conv2dMatchesBackward) {
  Rng ra(7), rb(7);
  Conv2d full(3, 6, 5, 1, 2, ra, /*bias=*/true);
  Conv2d lean(3, 6, 5, 1, 2, rb, /*bias=*/true);
  check_twins(full, lean, random_tensor(Shape{4, 3, 9, 7}, 11), Shape{4, 6, 9, 7});
}

TEST(AccumulateGradsTest, StridedConv2dMatchesBackward) {
  Rng ra(8), rb(8);
  Conv2d full(2, 5, 3, 2, 1, ra);
  Conv2d lean(2, 5, 3, 2, 1, rb);
  check_twins(full, lean, random_tensor(Shape{3, 2, 10, 7}, 12), Shape{3, 5, 5, 4});
}

TEST(AccumulateGradsTest, LinearMatchesBackward) {
  Rng ra(9), rb(9);
  Linear full(37, 19, ra);
  Linear lean(37, 19, rb);
  check_twins(full, lean, random_tensor(Shape{6, 37}, 13), Shape{6, 19});
}

ModelSpec lenet_spec() {
  ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 2;
  spec.seed = 21;
  return spec;
}

TEST(AccumulateGradsTest, Lenet5SequentialMatchesBackward) {
  const ModelSpec spec = lenet_spec();
  auto full = make_lenet5(spec);
  auto lean = make_lenet5(spec);
  // Time-major input [T*N, C, H, W] straight into the body; strong
  // enough that the LIF layers fire and gradients reach every layer.
  const Tensor x = random_tensor(Shape{spec.timesteps * 3, 1, 8, 8}, 14);
  check_twins(full->body(), lean->body(), x, Shape{spec.timesteps * 3, spec.num_classes});
  const Tensor& conv1_grad = *lean->params().front().grad;  // layer0.weight
  EXPECT_LT(conv1_grad.count_zeros(), conv1_grad.numel());
}

TEST(AccumulateGradsTest, TrainStepMatchesFullBackwardAfterSgdSteps) {
  const ModelSpec spec = lenet_spec();
  auto lean = make_lenet5(spec);
  auto full = make_lenet5(spec);
  opt::Sgd sgd_lean(lean->params(), opt::SgdConfig{});
  opt::Sgd sgd_full(full->params(), opt::SgdConfig{});
  snn::DirectEncoder encoder;
  CrossEntropyLoss loss;
  const std::vector<int64_t> labels = {3, 1, 4, 1};
  for (uint64_t step = 0; step < 2; ++step) {
    Tensor batch = random_tensor(Shape{4, 1, 8, 8}, 30 + step);
    for (int64_t i = 0; i < batch.numel(); ++i) batch.at(i) += 1.0F;

    sgd_lean.zero_grad();
    (void)lean->train_step(batch, labels);
    sgd_lean.step();

    // train_step with the leaf's input gradient computed and dropped.
    sgd_full.zero_grad();
    Sequential& body = full->body();
    body.reset_state();
    const Tensor logits =
        body.forward(encoder.encode(batch, spec.timesteps), /*training=*/true);
    const LossResult lr = loss.compute(mean_over_time(logits, spec.timesteps), labels);
    (void)body.backward(broadcast_over_time(lr.grad_logits, spec.timesteps));
    sgd_full.step();
  }
  const std::vector<ParamRef> pl = lean->params();
  const std::vector<ParamRef> pf = full->params();
  ASSERT_EQ(pl.size(), pf.size());
  int64_t moved = 0;
  for (std::size_t i = 0; i < pl.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(*pl[i].value, *pf[i].value)) << pl[i].name;
    moved += pl[i].grad->numel() - pl[i].grad->count_zeros();
  }
  EXPECT_GT(moved, 0);  // the steps really trained something
}

}  // namespace
}  // namespace ndsnn::nn
