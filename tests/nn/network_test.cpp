#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/neuron_activations.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<SpikingNetwork> tiny_net(int64_t timesteps = 2) {
  Rng rng(3);
  auto body = std::make_unique<Sequential>();
  body->emplace<Flatten>();
  body->emplace<Linear>(8, 16, rng);
  body->emplace<LifActivation>(snn::LifConfig{}, timesteps);
  body->emplace<Linear>(16, 3, rng);
  return std::make_unique<SpikingNetwork>(std::move(body), timesteps);
}

TEST(SpikingNetworkTest, PredictShape) {
  auto net = tiny_net();
  Tensor batch(Shape{4, 2, 2, 2}, 0.5F);
  const Tensor logits = net->predict(batch);
  EXPECT_EQ(logits.shape(), Shape({4, 3}));
}

TEST(SpikingNetworkTest, TrainStepReturnsBatchStats) {
  auto net = tiny_net();
  Tensor batch(Shape{4, 2, 2, 2}, 0.5F);
  const StepResult r = net->train_step(batch, {0, 1, 2, 0});
  EXPECT_EQ(r.batch, 4);
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_GE(r.spike_rate, 0.0);
  EXPECT_LE(r.spike_rate, 1.0);
  EXPECT_GE(r.correct, 0);
  EXPECT_LE(r.correct, 4);
}

TEST(SpikingNetworkTest, EvalStepDoesNotTouchGrads) {
  auto net = tiny_net();
  for (auto& p : net->params()) p.grad->zero();
  Tensor batch(Shape{2, 2, 2, 2}, 0.5F);
  (void)net->eval_step(batch, {0, 1});
  for (auto& p : net->params()) {
    EXPECT_EQ(p.grad->count_zeros(), p.grad->numel()) << p.name;
  }
}

TEST(SpikingNetworkTest, TrainStepAccumulatesGrads) {
  auto net = tiny_net();
  for (auto& p : net->params()) p.grad->zero();
  Tensor batch(Shape{4, 2, 2, 2}, 0.9F);
  (void)net->train_step(batch, {0, 1, 2, 0});
  bool any = false;
  for (auto& p : net->params()) {
    if (p.grad->count_zeros() != p.grad->numel()) any = true;
  }
  EXPECT_TRUE(any);
}

TEST(SpikingNetworkTest, PrunableWeightCount) {
  auto net = tiny_net();
  // Linear(8->16) + Linear(16->3): 128 + 48 = 176 prunable weights.
  EXPECT_EQ(net->prunable_weight_count(), 176);
}

TEST(SpikingNetworkTest, RepeatedPredictIsDeterministic) {
  auto net = tiny_net();
  Tensor batch(Shape{2, 2, 2, 2}, 0.7F);
  const Tensor a = net->predict(batch);
  const Tensor b = net->predict(batch);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(SpikingNetworkTest, TimestepsMustBePositive) {
  Rng rng(4);
  auto body = std::make_unique<Sequential>();
  body->emplace<Flatten>();
  body->emplace<Linear>(8, 3, rng);
  EXPECT_THROW(SpikingNetwork(std::move(body), 0), std::invalid_argument);
}

TEST(SpikingNetworkTest, NullBodyRejected) {
  EXPECT_THROW(SpikingNetwork(nullptr, 2), std::invalid_argument);
}

TEST(SpikingNetworkTest, PoissonEncoderOption) {
  Rng rng(5);
  auto body = std::make_unique<Sequential>();
  body->emplace<Flatten>();
  body->emplace<Linear>(8, 3, rng);
  SpikingNetwork net(std::move(body), 4, std::make_unique<snn::PoissonEncoder>(9));
  Tensor batch(Shape{2, 2, 2, 2}, 0.5F);
  const Tensor logits = net.predict(batch);
  EXPECT_EQ(logits.shape(), Shape({2, 3}));
}

TEST(SpikingNetworkTest, MoreTimestepsSmoothsRateEstimate) {
  // With direct encoding and deterministic LIF, both T produce valid
  // logits; just verify different T values run and differ.
  auto t2 = tiny_net(2);
  auto t8 = tiny_net(8);
  Tensor batch(Shape{1, 2, 2, 2}, 0.6F);
  const Tensor a = t2->predict(batch);
  const Tensor b = t8->predict(batch);
  EXPECT_EQ(a.shape(), b.shape());
}

}  // namespace
}  // namespace ndsnn::nn
