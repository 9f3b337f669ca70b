#include <gtest/gtest.h>

#include "nn/neuron_activations.hpp"

namespace ndsnn::nn {
namespace {

using snn::LifConfig;
using snn::SurrogateKind;
using snn::surrogate_grad;
using tensor::Shape;
using tensor::Tensor;

LifConfig config(float alpha = 0.5F, float theta = 1.0F) {
  LifConfig c;
  c.alpha = alpha;
  c.threshold = theta;
  return c;
}

TEST(LifConfigTest, Validation) {
  EXPECT_NO_THROW(config().validate());
  EXPECT_THROW(config(0.0F).validate(), std::invalid_argument);
  EXPECT_THROW(config(1.5F).validate(), std::invalid_argument);
  EXPECT_THROW(config(0.5F, 0.0F).validate(), std::invalid_argument);
}

TEST(LifTest, SingleStepFiresAtThreshold) {
  LifActivation lif(config(), /*timesteps=*/1);
  Tensor current(Shape{1, 2}, std::vector<float>{0.9F, 1.0F});
  const Tensor spikes = lif.forward(current, true);
  EXPECT_EQ(spikes.at(0), 0.0F);  // 0.9 < theta
  EXPECT_EQ(spikes.at(1), 1.0F);  // 1.0 >= theta
}

TEST(LifTest, MembraneIntegratesWithLeak) {
  // Hand-computed trace, alpha=0.5, theta=1, I = 0.6 each step:
  //  v1 = 0.6          -> no spike
  //  v2 = 0.3+0.6=0.9  -> no spike
  //  v3 = 0.45+0.6=1.05-> spike
  //  v4 = 0.5*1.05+0.6-1 = 0.125 -> no spike (reset applied at t=4)
  LifActivation lif(config(), 4);
  Tensor current(Shape{4, 1}, std::vector<float>{0.6F, 0.6F, 0.6F, 0.6F});
  const Tensor spikes = lif.forward(current, true);
  EXPECT_EQ(spikes.at(0), 0.0F);
  EXPECT_EQ(spikes.at(1), 0.0F);
  EXPECT_EQ(spikes.at(2), 1.0F);
  EXPECT_EQ(spikes.at(3), 0.0F);
}

TEST(LifTest, ResetBySubtractionExact) {
  // Large drive: v1 = 2.0 -> spike. v2 = 0.5*2.0 + 0 - 1*1 = 0 -> no spike.
  LifActivation lif(config(), 2);
  Tensor current(Shape{2, 1}, std::vector<float>{2.0F, 0.0F});
  const Tensor spikes = lif.forward(current, true);
  EXPECT_EQ(spikes.at(0), 1.0F);
  EXPECT_EQ(spikes.at(1), 0.0F);
}

TEST(LifTest, SpikeRateTracked) {
  LifActivation lif(config(), 2);
  Tensor current(Shape{2, 2}, std::vector<float>{2.0F, 0.0F, 2.0F, 0.0F});
  (void)lif.forward(current, true);
  EXPECT_NEAR(lif.last_spike_rate(), 0.5, 1e-9);
}

TEST(LifTest, NumelNotDivisibleByTimestepsThrows) {
  LifActivation lif(config(), 3);
  Tensor current(Shape{2, 2});
  EXPECT_THROW((void)lif.forward(current, true), std::invalid_argument);
}

TEST(LifTest, BackwardBeforeForwardThrows) {
  LifActivation lif(config(), 1);
  Tensor g(Shape{1, 1});
  EXPECT_THROW((void)lif.backward(g), std::logic_error);
}

TEST(LifTest, BackwardShapeMismatchThrows) {
  LifActivation lif(config(), 1);
  Tensor current(Shape{1, 2});
  (void)lif.forward(current, true);
  Tensor g(Shape{1, 3});
  EXPECT_THROW((void)lif.backward(g), std::invalid_argument);
}

TEST(LifTest, BackwardSingleStepIsSurrogateScaled) {
  // T=1: eps = delta * phi(v - theta).
  LifActivation lif(config(), 1);
  Tensor current(Shape{1, 1}, std::vector<float>{0.8F});
  (void)lif.forward(current, true);
  Tensor g(Shape{1, 1}, std::vector<float>{2.0F});
  const Tensor gin = lif.backward(g);
  const float phi = surrogate_grad(SurrogateKind::kAtan, 0.8F - 1.0F);
  EXPECT_FLOAT_EQ(gin.at(0), 2.0F * phi);
}

TEST(LifTest, BackwardPropagatesThroughTimeWithLeak) {
  // T=2, detach_reset=true:
  //   eps[1] = d1 * phi(v1-theta)
  //   eps[0] = d0 * phi(v0-theta) + alpha * eps[1]
  LifActivation lif(config(), 2);
  Tensor current(Shape{2, 1}, std::vector<float>{0.4F, 0.4F});
  (void)lif.forward(current, true);
  // v0 = 0.4; v1 = 0.2 + 0.4 = 0.6 (no spikes, no reset).
  Tensor g(Shape{2, 1}, std::vector<float>{1.0F, 1.0F});
  const Tensor gin = lif.backward(g);
  const float phi0 = surrogate_grad(SurrogateKind::kAtan, 0.4F - 1.0F);
  const float phi1 = surrogate_grad(SurrogateKind::kAtan, 0.6F - 1.0F);
  const float eps1 = 1.0F * phi1;
  const float eps0 = 1.0F * phi0 + 0.5F * eps1;
  EXPECT_FLOAT_EQ(gin.at(1), eps1);
  EXPECT_FLOAT_EQ(gin.at(0), eps0);
}

TEST(LifTest, AttachedResetChangesGradient) {
  LifConfig with_reset = config();
  with_reset.detach_reset = false;
  LifActivation a(config(), 3);
  LifActivation b(with_reset, 3);
  // Drive hard enough to spike at t=0 so the reset path is active.
  Tensor current(Shape{3, 1}, std::vector<float>{1.5F, 0.9F, 0.9F});
  (void)a.forward(current, true);
  (void)b.forward(current, true);
  Tensor g(Shape{3, 1}, 1.0F);
  const Tensor ga = a.backward(g);
  const Tensor gb = b.backward(g);
  EXPECT_NE(ga.at(0), gb.at(0));
}

TEST(LifTest, ResetStateClearsSaved) {
  LifActivation lif(config(), 1);
  Tensor current(Shape{1, 1});
  (void)lif.forward(current, true);
  lif.reset_state();
  Tensor g(Shape{1, 1});
  EXPECT_THROW((void)lif.backward(g), std::logic_error);
}

class LifAlphaSweep : public ::testing::TestWithParam<float> {};

TEST_P(LifAlphaSweep, HigherDriveNeverFiresLess) {
  // Property: with any leak, increasing a constant input current can only
  // increase (or keep) the total spike count.
  const float alpha = GetParam();
  int64_t prev_spikes = 0;
  for (const float drive : {0.1F, 0.3F, 0.5F, 0.8F, 1.2F}) {
    LifActivation lif(config(alpha), 8);
    Tensor current(Shape{8, 1}, drive);
    const Tensor spikes = lif.forward(current, true);
    int64_t count = 0;
    for (int64_t i = 0; i < spikes.numel(); ++i) count += spikes.at(i) != 0.0F;
    EXPECT_GE(count, prev_spikes) << "alpha=" << alpha << " drive=" << drive;
    prev_spikes = count;
  }
}

INSTANTIATE_TEST_SUITE_P(Leaks, LifAlphaSweep, ::testing::Values(0.25F, 0.5F, 0.9F, 1.0F));

}  // namespace
}  // namespace ndsnn::nn
