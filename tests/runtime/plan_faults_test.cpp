// Allocation budget of compiled inference. Plan::execute and
// StreamSession run every op into buffers kept from call to call, so a
// steady infer at a fixed batch shape page-faults almost nothing,
// whatever the process allocated or freed before it, and a steady
// stream step allocates nothing but its result. Page faults cannot see
// an allocation glibc serves again from its free lists, so the event
// plan's budgets also count operator new calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "../testing_env.hpp"
#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/stream_session.hpp"
#include "testing.hpp"
#include "tensor/random.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#endif

#if defined(__linux__) && !NDSNN_ASAN_OR_TSAN
namespace {
/// operator new calls of this process. Every test of the binary bumps
/// it; only the re-executed children below read it.
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
#endif

namespace ndsnn::runtime {
namespace {

#if defined(__linux__) && !NDSNN_ASAN_OR_TSAN
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

/// operator new calls of one steady forced-event infer at batch 32:
///   1. InferenceResult's default logits, a one-float scalar Tensor;
///   2. the time-major dims tile_time_major builds for the tiled prefix;
///   3-4. mean_over_time's [N, 10] mean logits (dims and data), averaged
///        straight from execute()'s kept [T*N, 10] step logits.
/// Every op writes into a kept buffer, its shape included.
constexpr long kInferAllocations = 4;

/// operator new calls of one steady stream step: its result's [N, 10]
/// logits, copied out of the last stage's kept buffer (dims and data).
constexpr long kStepAllocations = 2;

constexpr int kMeasured = 8;

/// LeNet-5 (3x32x32, T = 2) pruned to `sparsity` with random masks,
/// compiled into a serial plan under `mode`.
CompiledNetwork lenet5_plan(double sparsity, ActivationMode mode) {
  nn::ModelSpec spec;
  spec.in_channels = 3;
  spec.image_size = 32;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  if (sparsity > 0.0) difftest::apply_random_masks(*net, sparsity, 11);
  CompileOptions opts;
  opts.activation_mode = mode;
  return CompiledNetwork::compile(*net, opts);
}

/// A [32, 3, 32, 32] batch uniform in [0, `high`).
tensor::Tensor batch32(float high) {
  tensor::Rng rng(3);
  tensor::Tensor batch(tensor::Shape{32, 3, 32, 32});
  batch.fill_uniform(rng, 0.0F, high);
  return batch;
}

/// Runs a serial LeNet-5 plan pruned to `sparsity` under `mode` on one
/// batch of 32: two warm-up calls, then kMeasured measured ones. Exits 0
/// when they fault fewer pages per call than kInferFaultBudgetPages and,
/// when `count_allocations`, make at most kInferAllocations operator new
/// calls each.
[[noreturn]] void plan_fault_check(double sparsity, ActivationMode mode = ActivationMode::kAuto,
                                   bool count_allocations = false) {
  const CompiledNetwork plan = lenet5_plan(sparsity, mode);
  const InferenceRequest request{batch32(1.0F), {}};
  (void)plan.infer(request);
  (void)plan.infer(request);
  const long faults = minor_faults();
  const long allocations = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasured; ++i) (void)plan.infer(request);
  const double per_call = static_cast<double>(minor_faults() - faults) / kMeasured;
  const double news =
      static_cast<double>(g_allocations.load(std::memory_order_relaxed) - allocations) /
      kMeasured;
  std::fprintf(stderr,
               "minor faults per infer: %.1f (budget %.0f pages); operator new per infer: "
               "%.2f\n",
               per_call, kInferFaultBudgetPages, news);
  const bool ok = per_call < kInferFaultBudgetPages &&
                  (!count_allocations || news <= static_cast<double>(kInferAllocations));
  std::exit(ok ? 0 : 1);
}

/// Streams the 95%-sparse forced-event LeNet-5 frame by frame: two
/// warm-up steps, then kMeasured measured ones. Frames span [0, 4), so
/// conv1's LIF fires from the first step and each stage runs or
/// delta-skips the same way on every step. Exits 0 when every measured
/// step makes at most kStepAllocations operator new calls.
[[noreturn]] void stream_allocation_check() {
  const CompiledNetwork plan = lenet5_plan(0.95, ActivationMode::kEvent);
  const tensor::Tensor frame = batch32(4.0F);
  StreamSession session(plan);
  (void)session.step(frame);
  (void)session.step(frame);
  const long allocations = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < kMeasured; ++i) (void)session.step(frame);
  const long news = g_allocations.load(std::memory_order_relaxed) - allocations;
  std::fprintf(stderr, "operator new per stream step: %.2f (budget %ld)\n",
               static_cast<double>(news) / kMeasured, kStepAllocations);
  std::exit(news <= kStepAllocations * kMeasured ? 0 : 1);
}
#endif

// Each check runs in a freshly started copy of this binary (gtest's
// threadsafe death-test style), with glibc's allocation thresholds at
// their defaults: no earlier test's frees can make fresh buffers cheap.
// Dense weights take the dense GEMM conv; at 95% sparsity the convs run
// Csr::conv2d and the event scatter, the plan perfbench's plan_batch
// serves. The forced event plan scans every weight op's input, conv1's
// [32, 3, 32, 32] batch included, into per-thread views kept across
// calls; its allocation count is what pins that.
TEST(PlanFaultsDeathTest, SteadyInferFaultsWithinPageBudget) {
  if (const char* reason = difftest::allocation_skip_reason()) GTEST_SKIP() << reason;
#if defined(__linux__) && !NDSNN_ASAN_OR_TSAN
  const std::string style = testing::GTEST_FLAG(death_test_style);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(plan_fault_check(0.0), testing::ExitedWithCode(0), "minor faults per infer")
      << "dense plan";
  EXPECT_EXIT(plan_fault_check(0.95), testing::ExitedWithCode(0), "minor faults per infer")
      << "95% sparse plan";
  EXPECT_EXIT(plan_fault_check(0.95, ActivationMode::kEvent, /*count_allocations=*/true),
              testing::ExitedWithCode(0), "minor faults per infer")
      << "95% sparse event plan";
  testing::GTEST_FLAG(death_test_style) = style;
#endif
}

// A stream step runs each stage into the output buffer the session keeps
// for it and answers a delta-skipped stage from its cache by reference,
// so only the result's logits are allocated.
TEST(PlanFaultsDeathTest, SteadyStreamStepAllocatesOnlyItsResult) {
  if (const char* reason = difftest::allocation_skip_reason()) GTEST_SKIP() << reason;
#if defined(__linux__) && !NDSNN_ASAN_OR_TSAN
  const std::string style = testing::GTEST_FLAG(death_test_style);
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(stream_allocation_check(), testing::ExitedWithCode(0),
              "operator new per stream step");
  testing::GTEST_FLAG(death_test_style) = style;
#endif
}

}  // namespace
}  // namespace ndsnn::runtime
