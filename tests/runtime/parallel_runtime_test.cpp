// Intra-op parallel execution must never change the numbers: a plan
// compiled with CompileOptions::num_threads in {1, 2, 8} partitions its
// kernels by output row / batch row / output channel, and
// every output element is produced by exactly one chunk running the
// identical serial accumulation order — so fp32 plan outputs are
// bitwise identical across lane counts AND to the interpreted
// SpikingNetwork::predict, on every backend x activation pair. This is
// the acceptance gate of the row-partitioned kernel work (PR 5); the
// TSan CI job runs this suite to certify the pool data-race-free.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing.hpp"

namespace ndsnn::runtime {
namespace {

TEST(ParallelRuntimeTest, BitwiseIdenticalAcrossThreadCounts) {
  tensor::Rng rng(difftest::env_seed() ^ 0x9A11E7ULL);
  // A handful of harness configs: enough to hit conv + linear, CSR +
  // dense, event + dense-activation layers; the full-scale sweep
  // lives in differential_test (serial plans).
  std::vector<difftest::NetConfig> cases;
  difftest::NetConfig pinned;  // big enough that chunks actually dispatch
  pinned.image = 16;
  pinned.batch = 3;
  pinned.sparsity = 0.9;
  pinned.seed = 11;
  cases.push_back(pinned);
  pinned.sparsity = 0.0;  // 4x4 block mask -> CSR layers
  pinned.block_keep = 0.25;
  pinned.seed = 12;
  cases.push_back(pinned);
  for (int i = 0; i < 4; ++i) cases.push_back(difftest::random_config(rng));

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const difftest::NetConfig& cfg = cases[i];
    SCOPED_TRACE("config " + std::to_string(i) + ": " + cfg.str());
    const auto net = difftest::build_network(cfg);
    const tensor::Tensor batch = difftest::random_batch(cfg);
    const tensor::Tensor want = net->predict(batch);

    for (const int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
      runtime::CompileOptions opts = difftest::options_for();
      opts.num_threads = threads;
      const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
      EXPECT_EQ(compiled.intra_op_threads(), threads);
      difftest::expect_bitwise(compiled.run(batch), want,
                               "num_threads=" + std::to_string(threads));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelRuntimeTest, ForcedBackendsAndActivationsStayBitwiseAtEightLanes) {
  // Deterministic config, every backend x activation forced, 8 lanes:
  // covers the parallel dense fallback, spmm/spmm_t row partitioning,
  // the batch-row-parallel linear gather and the channel-strip conv
  // scatter in one sweep.
  difftest::NetConfig cfg;
  cfg.image = 16;
  cfg.batch = 4;
  cfg.timesteps = 2;
  cfg.sparsity = 0.9;
  cfg.seed = 29;
  const auto net = difftest::build_network(cfg);
  const tensor::Tensor batch = difftest::random_batch(cfg);
  const tensor::Tensor want = net->predict(batch);
  for (const Backend backend : difftest::all_backends()) {
    for (const ActivationMode activation : difftest::all_activation_modes()) {
      runtime::CompileOptions opts = difftest::options_for(backend, activation);
      opts.num_threads = 8;
      const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
      difftest::expect_bitwise(compiled.run(batch), want,
                               std::string("backend=") + difftest::backend_name(backend) +
                                   " activation=" + difftest::activation_name(activation) +
                                   " threads=8");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelRuntimeTest, QuantisedPlansDeterministicAcrossThreadCounts) {
  // Quantised kernels have no bitwise-vs-predict contract, but thread
  // count must still not change their output: compare the 2- and 8-lane
  // plans against the 1-lane plan of the same options, element for
  // element.
  difftest::NetConfig cfg;
  cfg.image = 16;
  cfg.batch = 3;
  cfg.timesteps = 2;
  cfg.sparsity = 0.9;
  cfg.seed = 31;
  const auto net = difftest::build_network(cfg);
  const tensor::Tensor batch = difftest::random_batch(cfg);
  for (const ActivationMode activation :
       {ActivationMode::kDense, ActivationMode::kEvent}) {
    runtime::CompileOptions opts = difftest::options_for(Backend::kCsr, activation);
    opts.weight_precision = WeightPrecision::kInt8;
    opts.num_threads = 1;
    const CompiledNetwork serial = CompiledNetwork::compile(*net, opts);
    const tensor::Tensor want = serial.run(batch);
    for (const int64_t threads : {int64_t{2}, int64_t{8}}) {
      opts.num_threads = threads;
      const CompiledNetwork pooled = CompiledNetwork::compile(*net, opts);
      difftest::expect_bitwise(pooled.run(batch), want,
                               std::string("int8 ") + difftest::activation_name(activation) +
                                   " threads=" + std::to_string(threads));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace ndsnn::runtime
