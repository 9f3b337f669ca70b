#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/neuron_activations.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

TEST(SequentialTest, ChainsForward) {
  Rng rng(1);
  auto seq = std::make_unique<Sequential>();
  auto& l1 = seq->emplace<Linear>(4, 3, rng);
  auto& l2 = seq->emplace<Linear>(3, 2, rng);
  (void)l1;
  (void)l2;
  Tensor x(Shape{2, 4}, 1.0F);
  const Tensor y = seq->forward(x, true);
  EXPECT_EQ(y.shape(), Shape({2, 2}));
}

TEST(SequentialTest, ParamNamesPrefixedByIndex) {
  Rng rng(2);
  Sequential seq;
  seq.emplace<Linear>(2, 2, rng);
  seq.emplace<Linear>(2, 2, rng);
  const auto params = seq.params();
  ASSERT_EQ(params.size(), 4U);
  EXPECT_EQ(params[0].name, "layer0.weight");
  EXPECT_EQ(params[2].name, "layer1.weight");
}

TEST(SequentialTest, BackwardReversesOrder) {
  Rng rng(3);
  Sequential seq;
  seq.emplace<Linear>(3, 3, rng);
  seq.emplace<Linear>(3, 1, rng);
  Tensor x(Shape{1, 3}, 1.0F);
  (void)seq.forward(x, true);
  Tensor g(Shape{1, 1}, 1.0F);
  const Tensor gin = seq.backward(g);
  EXPECT_EQ(gin.shape(), Shape({1, 3}));
}

TEST(SequentialTest, NullLayerRejected) {
  Sequential seq;
  EXPECT_THROW(seq.add(nullptr), std::invalid_argument);
}

TEST(SequentialTest, SpikeRateFromLifLayers) {
  Rng rng(4);
  snn::LifConfig lif;
  Sequential seq;
  seq.emplace<Linear>(2, 2, rng);
  seq.emplace<LifActivation>(lif, 1);
  Tensor x(Shape{1, 2}, 10.0F);  // drive hard -> all spike
  (void)seq.forward(x, true);
  EXPECT_GE(seq.last_spike_rate(), 0.0);
}

TEST(SequentialTest, NoSpikingLayersReportsNegative) {
  Rng rng(5);
  Sequential seq;
  seq.emplace<Linear>(2, 2, rng);
  Tensor x(Shape{1, 2});
  (void)seq.forward(x, true);
  EXPECT_LT(seq.last_spike_rate(), 0.0);
}

TEST(SequentialTest, SizeAndAccess) {
  Rng rng(6);
  Sequential seq;
  seq.emplace<Linear>(2, 3, rng);
  seq.emplace<Flatten>();
  EXPECT_EQ(seq.size(), 2U);
  EXPECT_EQ(seq.layer(1).name(), "Flatten");
}

}  // namespace
}  // namespace ndsnn::nn
