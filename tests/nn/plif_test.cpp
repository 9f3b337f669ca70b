#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/neuron_activations.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {
namespace {

using snn::LifConfig;
using snn::PlifConfig;
using tensor::Shape;
using tensor::Tensor;

PlifConfig config(float alpha = 0.5F) {
  PlifConfig c;
  c.initial_alpha = alpha;
  return c;
}

TEST(PlifConfigTest, Validation) {
  EXPECT_NO_THROW(config().validate());
  EXPECT_THROW(config(0.0F).validate(), std::invalid_argument);
  EXPECT_THROW(config(1.0F).validate(), std::invalid_argument);
  auto c = config();
  c.threshold = 0.0F;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(PlifTest, InitialAlphaRoundTripsThroughSigmoid) {
  PlifActivation layer(config(0.7F), 2);
  EXPECT_NEAR(layer.alpha(), 0.7F, 1e-5F);
}

TEST(PlifTest, MatchesLifForwardAtSameLeak) {
  // With alpha fixed, PLIF forward must equal LIF forward exactly.
  PlifActivation plif(config(0.5F), 4);
  LifConfig lc;
  lc.alpha = 0.5F;
  LifActivation lif(lc, 4);
  Tensor current(Shape{4, 3}, std::vector<float>{0.6F, 1.2F, 0.1F, 0.6F, 0.0F, 0.9F,
                                                 0.6F, 0.4F, 0.9F, 0.6F, 0.8F, 0.9F});
  const Tensor a = plif.forward(current, true);
  const Tensor b = lif.forward(current, true);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), b.at(i)) << i;
}

void expect_bitwise(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got.at(i)), std::bit_cast<uint32_t>(want.at(i)))
        << what << " at " << i << ": " << got.at(i) << " vs " << want.at(i);
  }
}

TEST(PlifTest, MatchesLifBitwiseAtTrainedLeak) {
  // A PLIF whose leak has moved off its initial value must behave
  // exactly like a LIF built with that leak: same spikes, same dL/dI.
  // Inputs include -0.0F and currents exactly at the threshold (v - theta
  // == 0 fires), with and without the reset path in BPTT.
  constexpr int64_t kN = 4;
  constexpr int64_t kFeatures = 6;
  for (const bool detach : {true, false}) {
    for (const int64_t t_steps : {1, 2, 4}) {
      const std::string ctx =
          "T=" + std::to_string(t_steps) + " detach_reset=" + std::to_string(detach);
      PlifConfig pc = config(0.3F);
      pc.detach_reset = detach;
      PlifActivation plif(pc, t_steps);
      plif.params()[0].value->at(0) += 1.25F;  // an SGD update away from the initial leak
      LifConfig lc;
      lc.alpha = plif.alpha();
      lc.threshold = pc.threshold;
      lc.detach_reset = detach;
      LifActivation lif(lc, t_steps);
      ASSERT_NE(lc.alpha, 0.3F);

      tensor::Rng rng(7 + static_cast<uint64_t>(t_steps));
      Tensor current(Shape{t_steps * kN, kFeatures});
      current.fill_uniform(rng, -1.0F, 2.0F);
      for (int64_t i = 0; i < current.numel(); i += 5) current.at(i) = -0.0F;
      for (int64_t i = 2; i < current.numel(); i += 7) current.at(i) = pc.threshold;
      Tensor grad(current.shape());
      grad.fill_uniform(rng, -1.0F, 1.0F);

      expect_bitwise(plif.forward(current, true), lif.forward(current, true), ctx + " spikes");
      expect_bitwise(plif.backward(grad), lif.backward(grad), ctx + " dL/dI");
      EXPECT_EQ(plif.last_spike_rate(), lif.last_spike_rate()) << ctx;
      EXPECT_GT(lif.last_spike_rate(), 0.0) << ctx;
    }
  }
}

TEST(PlifTest, LeakGradientMatchesFiniteDifference) {
  // Probe loss L = sum(spikes * probe) is non-differentiable through the
  // Heaviside, so compare against the *surrogate* expectation instead:
  // perturb alpha, rerun, and check the analytic gradient at least has
  // the sign of the smoothed finite difference on a no-spike trace
  // (below threshold everywhere the surrogate is the only path).
  PlifActivation layer(config(0.6F), 3);
  Tensor current(Shape{3, 1}, std::vector<float>{0.3F, 0.3F, 0.3F});
  (void)layer.forward(current, true);
  Tensor g(Shape{3, 1}, 1.0F);
  (void)layer.backward(g);
  // Membrane never crosses threshold; higher leak -> higher v -> spikes
  // closer -> surrogate-positive gradient. eps[t] > 0 and v[t-1] > 0 for
  // t >= 1, so the leak gradient must be strictly positive.
  EXPECT_GT(layer.params()[0].grad->at(0), 0.0F);
}

TEST(PlifTest, BackwardShapeAndOrderingChecks) {
  PlifActivation layer(config(), 2);
  Tensor g(Shape{2, 2});
  EXPECT_THROW((void)layer.backward(g), std::logic_error);
  Tensor current(Shape{2, 2}, 0.4F);
  (void)layer.forward(current, true);
  Tensor bad(Shape{2, 3});
  EXPECT_THROW((void)layer.backward(bad), std::invalid_argument);
}

TEST(PlifTest, SpikeRateTracked) {
  PlifActivation layer(config(), 1);
  Tensor current(Shape{1, 4}, std::vector<float>{2.0F, 0.0F, 2.0F, 0.0F});
  (void)layer.forward(current, true);
  EXPECT_NEAR(layer.last_spike_rate(), 0.5, 1e-9);
}

TEST(PlifTest, ResetStateClears) {
  PlifActivation layer(config(), 1);
  Tensor current(Shape{1, 1}, 0.5F);
  (void)layer.forward(current, true);
  layer.reset_state();
  Tensor g(Shape{1, 1});
  EXPECT_THROW((void)layer.backward(g), std::logic_error);
}

}  // namespace
}  // namespace ndsnn::nn
