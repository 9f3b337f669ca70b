// Fault budget of a steady training step. Conv2d keeps its patch matrix
// across steps and builds the input gradient one sample at a time, so a
// LeNet-5 train_step at a fixed batch shape allocates no patch-sized
// buffer, with or without gradient masks. A step that page-faults more
// pages than one conv1 patch matrix holds is re-allocating one.
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "nn/models/zoo.hpp"
#include "tensor/random.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace ndsnn::nn {
namespace {

const char* fault_budget_skip_reason() {
#if !defined(__linux__)
  return "minor-fault counts are read with Linux getrusage";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer allocators map and poison memory on their own schedule";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer allocators map and poison memory on their own schedule";
#endif
#endif
  return nullptr;
}

#if defined(__linux__)
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}
#endif

/// Minor page faults per steady LeNet-5 train_step at batch 32, T = 2,
/// next to the budget: one conv1 patch matrix in pages. With `masked`,
/// the conv weights are pruned to random masks whose gradient masks the
/// layers hold, so the steps run the masked weight gradient and the
/// weight-sparse input gradient.
void expect_faults_within_budget(bool masked) {
#if defined(__linux__)
  ModelSpec spec;
  spec.in_channels = 3;
  spec.image_size = 32;
  spec.timesteps = 2;
  auto net = make_lenet5(spec);
  constexpr int64_t kBatch = 32;
  tensor::Rng rng(7);
  tensor::Tensor images(tensor::Shape{kBatch, 3, 32, 32});
  images.fill_normal(rng, 0.5F, 1.0F);
  std::vector<int64_t> labels(kBatch);
  for (int64_t i = 0; i < kBatch; ++i) labels[static_cast<std::size_t>(i)] = i % 10;
  const std::vector<ParamRef> params = net->params();
  if (masked) {
    const std::vector<float> densities = {0.35F, 0.12F};
    std::size_t conv = 0;
    for (const ParamRef& p : params) {
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

  const auto step = [&] {
    zero_grads(params);
    (void)net->train_step(images, labels);
  };
  step();
  step();
  constexpr int kMeasured = 4;
  const long before = minor_faults();
  for (int i = 0; i < kMeasured; ++i) step();
  const double per_step = static_cast<double>(minor_faults() - before) / kMeasured;

  // conv1's patch matrix: [3*5*5, T*N*32*32] fp32.
  const double patch_pages = 75.0 * (spec.timesteps * kBatch * 32 * 32) * sizeof(float) /
                             static_cast<double>(sysconf(_SC_PAGESIZE));
  std::printf("minor faults per %strain_step: %.1f (budget %.0f pages)\n",
              masked ? "masked " : "", per_step, patch_pages);
  EXPECT_LT(per_step, patch_pages);
#else
  (void)masked;
#endif
}

TEST(TrainingFaultsTest, SteadyTrainStepFaultsLessThanOnePatchMatrix) {
  if (const char* reason = fault_budget_skip_reason()) GTEST_SKIP() << reason;
  expect_faults_within_budget(/*masked=*/false);
}

// The masked weight gradient and the weight-sparse input gradient keep
// their workspaces across steps too.
TEST(TrainingFaultsTest, SteadyMaskedTrainStepFaultsLessThanOnePatchMatrix) {
  if (const char* reason = fault_budget_skip_reason()) GTEST_SKIP() << reason;
  expect_faults_within_budget(/*masked=*/true);
}

}  // namespace
}  // namespace ndsnn::nn
