// Sharded execution must never change the numbers: a plan compiled with
// CompileOptions::num_threads = L runs a batch of N rows as min(N, L)
// contiguous row shards, each through the serial plan on its own lane,
// and stacks their logits. Every op is row-independent at inference, so
// fp32 plan outputs are bitwise identical across lane counts AND to the
// interpreted SpikingNetwork::predict, on every backend x activation
// pair. The TSan CI job runs this suite to certify the pool
// data-race-free.
#include <gtest/gtest.h>

#include <stdexcept>
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
  difftest::NetConfig pinned;
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
  // Deterministic config, every backend x activation forced, 8 lanes
  // over 4 rows: one row per shard through the dense fallbacks, CSR
  // conv2d / spmm_t and the event gather and scatter.
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

TEST(ParallelRuntimeTest, ShardedPlansBitwiseAcrossBatchSizesAndLanes) {
  // N in {1, 3, 8, 17} x lanes {2, 4, 8}: fewer rows than lanes, uneven
  // shards (17 rows on 4 lanes = 4, 4, 4, 5), and one row that cannot
  // shard at all.
  for (const int64_t rows : {int64_t{1}, int64_t{3}, int64_t{8}, int64_t{17}}) {
    difftest::NetConfig cfg;
    cfg.batch = rows;
    cfg.sparsity = 0.9;
    cfg.seed = 41 + static_cast<uint64_t>(rows);
    const auto net = difftest::build_network(cfg);
    const tensor::Tensor batch = difftest::random_batch(cfg);
    const tensor::Tensor want = net->predict(batch);
    const tensor::Tensor serial =
        CompiledNetwork::compile(*net, difftest::options_for()).infer({batch, {}}).logits;
    difftest::expect_bitwise(serial, want, "serial N=" + std::to_string(rows));
    for (const int64_t lanes : {int64_t{2}, int64_t{4}, int64_t{8}}) {
      runtime::CompileOptions opts = difftest::options_for();
      opts.num_threads = lanes;
      const CompiledNetwork pooled = CompiledNetwork::compile(*net, opts);
      const std::string ctx = "N=" + std::to_string(rows) + " lanes=" + std::to_string(lanes);
      const tensor::Tensor got = pooled.infer({batch, {}}).logits;
      difftest::expect_bitwise(got, want, ctx + " vs predict");
      difftest::expect_bitwise(got, serial, ctx + " vs serial plan");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ParallelRuntimeTest, Int8CsrShardsMatchTheSerialPlanAcrossTheSpmmTRoute) {
  // 16 rows at T = 2 on 8 lanes: each shard's linear layers see m = 4
  // time-major rows, under spmm_t's m >= 8 batch-panel route, while the
  // serial plan runs all m = 32 rows through it. The quantised bodies
  // must give each row the same bits either way.
  difftest::NetConfig cfg;
  cfg.batch = 16;
  cfg.timesteps = 2;
  cfg.sparsity = 0.9;
  cfg.seed = 53;
  const auto net = difftest::build_network(cfg);
  const tensor::Tensor batch = difftest::random_batch(cfg);
  runtime::CompileOptions opts =
      difftest::options_for(Backend::kCsr, ActivationMode::kDense);
  opts.weight_precision = WeightPrecision::kInt8;
  const tensor::Tensor want = CompiledNetwork::compile(*net, opts).infer({batch, {}}).logits;
  opts.num_threads = 8;
  const CompiledNetwork pooled = CompiledNetwork::compile(*net, opts);
  difftest::expect_bitwise(pooled.infer({batch, {}}).logits, want, "int8 csr, 8 lanes");
}

TEST(ParallelRuntimeTest, ProfiledShardedPlanCountsOneExecutePerInfer) {
  difftest::NetConfig cfg;
  cfg.batch = 7;
  cfg.timesteps = 3;
  cfg.seed = 61;
  const auto net = difftest::build_network(cfg);
  const tensor::Tensor batch = difftest::random_batch(cfg);
  const CompiledNetwork serial = CompiledNetwork::compile(*net, difftest::options_for());
  runtime::CompileOptions opts = difftest::options_for();
  opts.num_threads = 4;
  const CompiledNetwork pooled = CompiledNetwork::compile(*net, opts);
  constexpr int kCalls = 3;
  for (const CompiledNetwork* plan : {&serial, &pooled}) {
    plan->enable_profiling(true);
    for (int i = 0; i < kCalls; ++i) (void)plan->infer({batch, {}});
    plan->enable_profiling(false);
    EXPECT_EQ(plan->profiled_executes(), kCalls);
  }
  // Shards split the rows, never add any: per op, the shards' rows sum
  // to the serial plan's, which is T * N past the invariant prefix.
  const auto serial_stats = serial.profile();
  const auto pooled_stats = pooled.profile();
  ASSERT_EQ(pooled_stats.size(), serial_stats.size());
  const std::size_t prefix = pooled.plan_ir().invariant_prefix;
  for (std::size_t i = 0; i < pooled_stats.size(); ++i) {
    EXPECT_EQ(pooled_stats[i].rows, serial_stats[i].rows) << pooled_stats[i].layer;
    if (i >= prefix) {
      EXPECT_EQ(pooled_stats[i].rows, kCalls * cfg.timesteps * cfg.batch)
          << pooled_stats[i].layer;
    }
  }
}

TEST(ParallelRuntimeTest, ShardedPlanRejectsABadShapeBatch) {
  difftest::NetConfig cfg;
  cfg.seed = 67;
  const auto net = difftest::build_network(cfg);
  runtime::CompileOptions opts = difftest::options_for();
  opts.num_threads = 4;
  const CompiledNetwork pooled = CompiledNetwork::compile(*net, opts);
  // Eight rows with one channel too many: every shard's first op throws,
  // and the pool hands the first failure back to the caller.
  const tensor::Tensor bad(tensor::Shape{8, cfg.channels + 1, cfg.image, cfg.image});
  EXPECT_THROW((void)pooled.infer({bad, {}}), std::invalid_argument);
  EXPECT_THROW((void)pooled.infer({tensor::Tensor(tensor::Shape{8}), {}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ndsnn::runtime
