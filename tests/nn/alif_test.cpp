#include <gtest/gtest.h>

#include <cmath>

#include "nn/neuron_activations.hpp"

namespace ndsnn::nn {
namespace {

using snn::AlifConfig;
using snn::LifConfig;
using tensor::Shape;
using tensor::Tensor;

AlifConfig config(float beta = 0.2F) {
  AlifConfig c;
  c.beta = beta;
  return c;
}

TEST(AlifConfigTest, Validation) {
  EXPECT_NO_THROW(config().validate());
  auto c = config();
  c.rho = 1.0F;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = config();
  c.beta = -0.1F;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(AlifTest, ZeroBetaReducesToLif) {
  AlifActivation alif(config(0.0F), 4);
  LifConfig lc;
  lc.alpha = 0.5F;
  LifActivation lif(lc, 4);
  Tensor current(Shape{4, 2},
                 std::vector<float>{0.8F, 1.5F, 0.8F, 0.2F, 0.8F, 1.5F, 0.8F, 0.2F});
  const Tensor a = alif.forward(current, true);
  const Tensor b = lif.forward(current, true);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), b.at(i)) << i;
}

TEST(AlifTest, AdaptationSuppressesSustainedFiring) {
  // Constant strong drive: ALIF must fire strictly less than LIF because
  // every spike raises the threshold.
  AlifActivation alif(config(0.5F), 16);
  LifConfig lc;
  lc.alpha = 0.5F;
  LifActivation lif(lc, 16);
  Tensor current(Shape{16, 8}, 1.5F);
  (void)alif.forward(current, true);
  (void)lif.forward(current, true);
  EXPECT_LT(alif.last_spike_rate(), lif.last_spike_rate());
  EXPECT_GT(alif.last_spike_rate(), 0.0);
}

TEST(AlifTest, StrongerAdaptationFiresLess) {
  double prev_rate = 1.0;
  for (const float beta : {0.1F, 0.5F, 1.5F}) {
    AlifActivation alif(config(beta), 16);
    Tensor current(Shape{16, 4}, 1.5F);
    (void)alif.forward(current, true);
    EXPECT_LE(alif.last_spike_rate(), prev_rate + 1e-9) << "beta " << beta;
    prev_rate = alif.last_spike_rate();
  }
}

TEST(AlifTest, BackwardProducesFiniteGrads) {
  AlifActivation alif(config(), 4);
  Tensor current(Shape{4, 3}, 0.9F);
  (void)alif.forward(current, true);
  Tensor g(Shape{4, 3}, 1.0F);
  const Tensor gin = alif.backward(g);
  for (int64_t i = 0; i < gin.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(gin.at(i)));
  }
}

TEST(AlifTest, OrderingChecks) {
  AlifActivation alif(config(), 2);
  Tensor g(Shape{2, 1});
  EXPECT_THROW((void)alif.backward(g), std::logic_error);
  EXPECT_THROW(AlifActivation(config(), 0), std::invalid_argument);
}

}  // namespace
}  // namespace ndsnn::nn
