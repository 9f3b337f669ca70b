// Allocation budget of compiled inference. Plan::execute runs every op
// into buffers the calling thread keeps from call to call, so a steady
// infer at a fixed batch shape page-faults almost nothing, whatever the
// process allocated or freed before it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "../testing_env.hpp"
#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "testing.hpp"
#include "tensor/random.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#endif

namespace ndsnn::runtime {
namespace {

#if defined(__linux__)
long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// Page budget of one steady LeNet-5 infer at batch 32, T = 2: a
/// quarter of conv1's output, [32, 6, 32, 32] fp32 in 4 KiB pages. A
/// call that faults this many pages is re-allocating an activation-sized
/// buffer (a plan that does so for every op faults ~1.2 K pages a call).
constexpr double kInferFaultBudgetPages = 48.0;

/// Compiles LeNet-5 (3x32x32, T = 2) pruned to `sparsity` with random
/// masks under `mode` and runs a serial plan on one batch of 32: two
/// warm-up calls, then eight measured ones. Exits 0 when they fault
/// fewer pages per call than kInferFaultBudgetPages.
[[noreturn]] void plan_fault_check(double sparsity,
                                   ActivationMode mode = ActivationMode::kAuto) {
  nn::ModelSpec spec;
  spec.in_channels = 3;
  spec.image_size = 32;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  if (sparsity > 0.0) difftest::apply_random_masks(*net, sparsity, 11);
  CompileOptions opts;
  opts.activation_mode = mode;
  const CompiledNetwork plan = CompiledNetwork::compile(*net, opts);
  tensor::Rng rng(3);
  tensor::Tensor batch(tensor::Shape{32, 3, 32, 32});
  batch.fill_uniform(rng, 0.0F, 1.0F);
  const InferenceRequest request{batch, {}};
  (void)plan.infer(request);
  (void)plan.infer(request);
  constexpr int kMeasured = 8;
  const long before = minor_faults();
  for (int i = 0; i < kMeasured; ++i) (void)plan.infer(request);
  const double per_call = static_cast<double>(minor_faults() - before) / kMeasured;
  std::fprintf(stderr, "minor faults per infer: %.1f (budget %.0f pages)\n", per_call,
               kInferFaultBudgetPages);
  std::exit(per_call < kInferFaultBudgetPages ? 0 : 1);
}
#endif

// Each check runs in a freshly started copy of this binary (gtest's
// threadsafe death-test style), with glibc's allocation thresholds at
// their defaults: no earlier test's frees can make fresh buffers cheap.
// Dense weights take the dense GEMM conv; at 95% sparsity the convs run
// Csr::conv2d and the event scatter, the plan perfbench's plan_batch
// serves. The forced event plan scans every weight op's input, conv1's
// [32, 3, 32, 32] batch included.
TEST(PlanFaultsDeathTest, SteadyInferFaultsWithinPageBudget) {
  if (const char* reason = difftest::allocation_skip_reason()) GTEST_SKIP() << reason;
#if defined(__linux__)
  const std::string style = testing::GTEST_FLAG(death_test_style);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(plan_fault_check(0.0), testing::ExitedWithCode(0), "minor faults per infer")
      << "dense plan";
  EXPECT_EXIT(plan_fault_check(0.95), testing::ExitedWithCode(0), "minor faults per infer")
      << "95% sparse plan";
  EXPECT_EXIT(plan_fault_check(0.95, ActivationMode::kEvent), testing::ExitedWithCode(0),
              "minor faults per infer")
      << "95% sparse event plan";
  testing::GTEST_FLAG(death_test_style) = style;
#endif
}

}  // namespace
}  // namespace ndsnn::runtime
