// Allocation budgets of training. Conv2d stages its patches a cache-sized
// block at a time, and every layer writes its outputs, saved state and
// gradients into buffers kept across steps, so a LeNet-5 train_step at a
// fixed batch shape page-faults almost nothing, with or without gradient
// masks, and one conv forward + weight gradient never holds a
// whole-batch patch matrix.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/models/zoo.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "tensor/random.hpp"
#include "../testing_env.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace ndsnn::nn {
namespace {

using difftest::allocation_skip_reason;

#if defined(__linux__)
rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}
#endif

/// Page budget of a steady LeNet-5 train_step at batch 32, T = 2. Every
/// layer output, saved state and gradient lives in a buffer kept across
/// steps (Sequential's two between-layer buffers, BN's normalised input,
/// LIF's v - theta, the conv and linear saved inputs), so a steady step
/// faulted 0-1.5 pages on a 4-lane host, with or without masks, also
/// with other test binaries running beside it. The margin covers pool
/// lanes that first run a kind of chunk in a measured step on a host
/// with more lanes, each touching its own conv staging buffers once
/// (~35 pages per lane for the LeNet-5 convs). A step that re-allocates one
/// activation-sized buffer faults more: BN1's output alone is 384 pages.
constexpr double kStepFaultBudgetPages = 128.0;

/// A batch of 32 [3, 32, 32] images drawn from N(0.5, 1).
tensor::Tensor step_images(tensor::Rng& rng) {
  tensor::Tensor images(tensor::Shape{32, 3, 32, 32});
  images.fill_normal(rng, 0.5F, 1.0F);
  return images;
}

/// Minor page faults per steady train_step of `net` on `images`, next
/// to kStepFaultBudgetPages.
void expect_steady_faults_within_budget(SpikingNetwork& net, const tensor::Tensor& images,
                                        const char* what) {
#if defined(__linux__)
  const int64_t batch = images.dim(0);
  std::vector<int64_t> labels(static_cast<std::size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) labels[static_cast<std::size_t>(i)] = i % 10;
  const std::vector<ParamRef> params = net.params();
  const auto step = [&] {
    zero_grads(params);
    (void)net.train_step(images, labels);
  };
  step();
  step();
  constexpr int kMeasured = 4;
  const long before = self_usage().ru_minflt;
  for (int i = 0; i < kMeasured; ++i) step();
  const double per_step = static_cast<double>(self_usage().ru_minflt - before) / kMeasured;

  std::printf("minor faults per %s train_step: %.1f (budget %.0f pages)\n", what, per_step,
              kStepFaultBudgetPages);
  EXPECT_LT(per_step, kStepFaultBudgetPages);
#else
  (void)net;
  (void)images;
  (void)what;
#endif
}

/// LeNet-5 at T = 2. With `masked`, the conv weights are pruned to
/// random masks whose gradient masks the layers hold, so the steps run
/// the masked weight gradient and the weight-sparse input gradient.
void expect_lenet_faults_within_budget(bool masked) {
  ModelSpec spec;
  spec.in_channels = 3;
  spec.image_size = 32;
  spec.timesteps = 2;
  auto net = make_lenet5(spec);
  tensor::Rng rng(7);
  const tensor::Tensor images = step_images(rng);
  if (masked) {
    const std::vector<float> densities = {0.35F, 0.12F};
    std::size_t conv = 0;
    for (const ParamRef& p : net->params()) {
      if (p.grad_mask == nullptr) continue;
      std::vector<uint8_t> keep(static_cast<std::size_t>(p.value->numel()));
      for (int64_t i = 0; i < p.value->numel(); ++i) {
        keep[static_cast<std::size_t>(i)] = rng.uniform(0.0F, 1.0F) < densities.at(conv) ? 1 : 0;
        if (keep[static_cast<std::size_t>(i)] == 0) p.value->at(i) = 0.0F;
      }
      p.grad_mask->keep_only(keep);
      ++conv;
    }
    ASSERT_EQ(conv, densities.size());
  }
  expect_steady_faults_within_budget(*net, images, masked ? "masked LeNet-5" : "LeNet-5");
}

TEST(TrainingFaultsTest, SteadyTrainStepFaultsWithinPageBudget) {
  if (const char* reason = allocation_skip_reason()) GTEST_SKIP() << reason;
  expect_lenet_faults_within_budget(/*masked=*/false);
}

// The masked weight gradient and the weight-sparse input gradient keep
// their workspaces across steps too.
TEST(TrainingFaultsTest, SteadyMaskedTrainStepFaultsWithinPageBudget) {
  if (const char* reason = allocation_skip_reason()) GTEST_SKIP() << reason;
  expect_lenet_faults_within_budget(/*masked=*/true);
}

// PLIF and ALIF keep their saved state and workspaces across steps like
// LIF: a conv -> BN -> PLIF -> pool -> conv -> BN -> ALIF -> pool body.
TEST(TrainingFaultsTest, SteadyPlifAlifTrainStepFaultsWithinPageBudget) {
  if (const char* reason = allocation_skip_reason()) GTEST_SKIP() << reason;
  tensor::Rng rng(7);
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2d>(3, 16, 3, 1, 1, rng);
  body->emplace<BatchNorm2d>(16);
  body->emplace<PlifActivation>(snn::PlifConfig{}, 2);
  body->emplace<AvgPool2d>(2);
  body->emplace<Conv2d>(16, 32, 3, 1, 1, rng);
  body->emplace<BatchNorm2d>(32);
  body->emplace<AlifActivation>(snn::AlifConfig{}, 2);
  body->emplace<AvgPool2d>(2);
  body->emplace<Flatten>();
  body->emplace<Linear>(32 * 8 * 8, 10, rng);
  SpikingNetwork net(std::move(body), 2);
  expect_steady_faults_within_budget(net, step_images(rng), "PLIF/ALIF");
}

#if defined(__linux__)
/// One forward + weight gradient of LeNet-5's conv1 shape on a batch
/// whose whole-batch patch matrix, [3*5*5, 256*32*32] fp32, would be
/// 78.6 MB. Exits 0 when the peak RSS grew by less than that matrix.
[[noreturn]] void conv_peak_rss_check() {
  constexpr int64_t kBatch = 256;
  tensor::Rng rng(5);
  Conv2d conv(3, 6, 5, 1, 2, rng);
  tensor::Tensor x(tensor::Shape{kBatch, 3, 32, 32});
  x.fill_uniform(rng, 0.0F, 1.0F);
  const long before_kb = self_usage().ru_maxrss;
  {
    const tensor::Tensor y = conv.forward(x, /*training=*/true);
    tensor::Tensor gy(y.shape());
    gy.fill_uniform(rng, -1.0F, 1.0F);
    conv.accumulate_grads(gy, nullptr);
  }
  const double growth_bytes = 1024.0 * static_cast<double>(self_usage().ru_maxrss - before_kb);
  const double patch_bytes = 75.0 * kBatch * 32 * 32 * sizeof(float);
  std::fprintf(stderr, "peak RSS growth %.1f MB (one patch matrix %.1f MB)\n",
               growth_bytes / 1e6, patch_bytes / 1e6);
  std::exit(growth_bytes < patch_bytes ? 0 : 1);
}
#endif

// The peak RSS may grow by the output, the output gradient, the saved
// input and one staged patch block (~16 MB), never by a patch matrix.
// The check runs in a freshly started copy of this binary (gtest's
// threadsafe death-test style), so no earlier test's peak hides growth.
TEST(TrainingFaultsDeathTest, ConvPeakRssGrowsLessThanOnePatchMatrix) {
  if (const char* reason = allocation_skip_reason()) GTEST_SKIP() << reason;
#if defined(__linux__)
  const std::string style = testing::GTEST_FLAG(death_test_style);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(conv_peak_rss_check(), testing::ExitedWithCode(0), "peak RSS growth");
  testing::GTEST_FLAG(death_test_style) = style;
#endif
}

}  // namespace
}  // namespace ndsnn::nn
