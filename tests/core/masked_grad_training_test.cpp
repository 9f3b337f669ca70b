// Training with the layers' gradient masks (masked weight gradients on
// the steps whose gradients the method masks anyway) must be bitwise the
// same as training with every gradient computed dense.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/method.hpp"
#include "core/ndsnn_method.hpp"
#include "core/trainer.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"

namespace ndsnn::core {
namespace {

bool bitwise_equal(const tensor::Tensor& a, const tensor::Tensor& b) {
  const auto bytes = static_cast<std::size_t>(a.numel()) * sizeof(float);
  return a.shape() == b.shape() && std::memcmp(a.data(), b.data(), bytes) == 0;
}

/// Forwards every call to the wrapped method. After each hook that may
/// send gradient masks it either sets every layer back to dense
/// gradients (`suppress`) or records whether some Conv2d runs the
/// masked kernel on the next step.
class MaskProbe final : public SparseTrainingMethod {
 public:
  MaskProbe(SparseTrainingMethod& inner, bool suppress) : inner_(inner), suppress_(suppress) {}

  void initialize(const std::vector<nn::ParamRef>& params, tensor::Rng& rng) override {
    params_ = params;
    inner_.initialize(params, rng);
    observe();
  }
  void before_step(int64_t iteration) override { inner_.before_step(iteration); }
  void after_step(int64_t iteration) override {
    inner_.after_step(iteration);
    observe();
  }
  void on_epoch_begin(int64_t epoch) override { inner_.on_epoch_begin(epoch); }
  [[nodiscard]] double overall_sparsity() const override { return inner_.overall_sparsity(); }
  [[nodiscard]] std::vector<double> layer_sparsities() const override {
    return inner_.layer_sparsities();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  int64_t masked_conv_steps = 0;

 private:
  void observe() {
    bool masked = false;
    for (const nn::ParamRef& p : params_) {
      if (p.grad_mask == nullptr) continue;
      if (suppress_) {
        p.grad_mask->keep_all();
      } else if (p.grad_mask->bits() != nullptr &&
                 nn::Conv2d::masked_grad_pays(p.grad_mask->density(), p.value->dim(0))) {
        masked = true;
      }
    }
    if (masked) ++masked_conv_steps;
  }

  SparseTrainingMethod& inner_;
  bool suppress_;
  std::vector<nn::ParamRef> params_;
};

ExperimentConfig tiny_recipe(const std::string& method) {
  ExperimentConfig c;
  c.arch = "lenet5";
  c.dataset = "cifar10";
  c.method = method;
  // Full-width convs (450 and 2400 weights) at 8x8 images: sparse
  // enough to take the masked kernel, and large enough that NDSNN's
  // rounds grow connections, so growth from masked gradients would
  // change the run.
  c.sparsity = 0.95;
  c.initial_sparsity = 0.9;
  c.model_scale = 1.0;
  c.timesteps = 2;
  c.epochs = 3;
  c.batch_size = 16;
  c.train_samples = 64;
  c.test_samples = 32;
  c.learning_rate = 0.2;
  c.seed = 5;
  return c;
}

struct Trained {
  Experiment exp;
  TrainResult result;
  int64_t masked_conv_steps = 0;
};

Trained train(const std::string& method, bool suppress) {
  Trained t{build_experiment(tiny_recipe(method)), {}, 0};
  MaskProbe probe(*t.exp.method, suppress);
  Trainer trainer(*t.exp.network, probe, *t.exp.train_set, *t.exp.test_set, t.exp.trainer);
  t.result = trainer.run();
  t.masked_conv_steps = probe.masked_conv_steps;
  return t;
}

void expect_same_result(const TrainResult& a, const TrainResult& b) {
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    SCOPED_TRACE(testing::Message() << "epoch " << e);
    EXPECT_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
    EXPECT_EQ(a.epochs[e].train_acc, b.epochs[e].train_acc);
    EXPECT_EQ(a.epochs[e].test_acc, b.epochs[e].test_acc);
    EXPECT_EQ(a.epochs[e].sparsity, b.epochs[e].sparsity);
    EXPECT_EQ(a.epochs[e].spike_rate, b.epochs[e].spike_rate);
    EXPECT_EQ(a.epochs[e].lr, b.epochs[e].lr);
  }
  EXPECT_EQ(a.final_test_acc, b.final_test_acc);
  EXPECT_EQ(a.best_test_acc, b.best_test_acc);
  EXPECT_EQ(a.best_acc_at_final_sparsity, b.best_acc_at_final_sparsity);
  EXPECT_EQ(a.final_sparsity, b.final_sparsity);
  EXPECT_EQ(a.cost_index, b.cost_index);
}

TEST(MaskedGradTrainingTest, TrainsBitwiseAsDenseGradients) {
  for (const std::string method : {"ndsnn", "ndsnn_random_growth", "set", "rigl"}) {
    SCOPED_TRACE(method);
    Trained masked = train(method, /*suppress=*/false);
    Trained dense = train(method, /*suppress=*/true);
    // The run must actually take the masked conv kernel.
    EXPECT_GT(masked.masked_conv_steps, 0);
    EXPECT_EQ(dense.masked_conv_steps, 0);
    expect_same_result(masked.result, dense.result);

    const std::vector<nn::ParamRef> mp = masked.exp.network->params();
    const std::vector<nn::ParamRef> dp = dense.exp.network->params();
    ASSERT_EQ(mp.size(), dp.size());
    for (std::size_t i = 0; i < mp.size(); ++i) {
      EXPECT_TRUE(bitwise_equal(*mp[i].value, *dp[i].value)) << "param " << i << " " << mp[i].name;
      // Trainer::run leaves no gradient mask behind.
      if (mp[i].grad_mask != nullptr) {
        EXPECT_EQ(mp[i].grad_mask->bits(), nullptr);
      }
    }
    nn::Sequential& mb = masked.exp.network->body();
    nn::Sequential& db = dense.exp.network->body();
    for (std::size_t l = 0; l < mb.size(); ++l) {
      const auto* mbn = dynamic_cast<const nn::BatchNorm2d*>(&mb.layer(l));
      if (mbn == nullptr) continue;
      const auto& dbn = dynamic_cast<const nn::BatchNorm2d&>(db.layer(l));
      EXPECT_TRUE(bitwise_equal(mbn->running_mean(), dbn.running_mean())) << "layer " << l;
      EXPECT_TRUE(bitwise_equal(mbn->running_var(), dbn.running_var())) << "layer " << l;
    }
    const auto& mm = dynamic_cast<const MaskedMethodBase&>(*masked.exp.method);
    const auto& dm = dynamic_cast<const MaskedMethodBase&>(*dense.exp.method);
    for (std::size_t l = 0; l < mm.layer_sparsities().size(); ++l) {
      EXPECT_EQ(mm.mask(l).bits(), dm.mask(l).bits()) << "mask " << l;
    }
  }
}

// Growth by gradient magnitude reads dense gradients: on NDSNN's update
// steps every layer computes them all (inactive entries nonzero), and on
// the other steps a masked conv leaves its inactive entries at zero.
TEST(MaskedGradTrainingTest, GrowthStepGradientsAreDense) {
  Experiment exp = build_experiment(tiny_recipe("ndsnn"));
  auto& method = dynamic_cast<NdsnnMethod&>(*exp.method);
  nn::SpikingNetwork& net = *exp.network;
  const std::vector<nn::ParamRef> params = net.params();
  tensor::Rng rng(exp.trainer.seed);
  method.initialize(params, rng);
  data::DataLoader loader(*exp.train_set, exp.trainer.batch_size, 3);
  int64_t growth_steps = 0, masked_steps = 0;
  for (int64_t iteration = 0; iteration < 12; ++iteration) {
    if (iteration % 4 == 0) loader.start_epoch();
    const auto batch = loader.next();
    ASSERT_TRUE(batch.has_value());
    nn::zero_grads(params);
    (void)net.train_step(batch->images, batch->labels);
    std::size_t prunable = 0;
    for (const nn::ParamRef& p : params) {
      if (!p.prunable) continue;
      const sparse::Mask& mask = method.mask(prunable++);
      if (p.grad_mask == nullptr) continue;  // Linear: always dense
      int64_t inactive_nonzero = 0;
      for (int64_t i = 0; i < mask.numel(); ++i) {
        inactive_nonzero += !mask.test(i) && p.grad->at(i) != 0.0F ? 1 : 0;
      }
      if (method.reads_dense_grads(iteration)) {
        EXPECT_GT(inactive_nonzero, 0) << "iteration " << iteration << " " << p.name;
        ++growth_steps;
      } else if (nn::Conv2d::masked_grad_pays(p.grad_mask->density(), p.value->dim(0))) {
        EXPECT_EQ(inactive_nonzero, 0) << "iteration " << iteration << " " << p.name;
        ++masked_steps;
      }
    }
    method.before_step(iteration);
    method.after_step(iteration);
  }
  EXPECT_GT(growth_steps, 0);
  EXPECT_GT(masked_steps, 0);
}

}  // namespace
}  // namespace ndsnn::core
