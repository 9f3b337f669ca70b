// CompiledNetwork must reproduce SpikingNetwork::predict on the zoo
// models, dense and sparse, across T timesteps — plus the backend
// selection logic: heuristic kernel choice (sparse layers, structured
// or not, lower to CSR), forced backends, and the structured
// deployment paths. Scenario plumbing (masking, warm-up, bitwise
// comparison) comes from the differential harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "core/nm_projection.hpp"
#include "nn/checkpoint.hpp"
#include "nn/models/zoo.hpp"
#include "runtime/compiled_network.hpp"
#include "testing.hpp"
#include "tensor/random.hpp"
#include "util/stopwatch.hpp"

namespace ndsnn::runtime {
namespace {

using difftest::apply_random_masks;
using difftest::expect_bitwise;
using difftest::warm_up;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

Tensor random_batch(int64_t n, int64_t c, int64_t s, uint64_t seed) {
  Rng rng(seed);
  Tensor batch(Shape{n, c, s, s});
  batch.fill_uniform(rng, 0.0F, 1.0F);
  return batch;
}

int64_t count_kinds(const CompiledNetwork& plan, const std::string& a,
                    const std::string& b = "") {
  int64_t n = 0;
  for (const auto& r : plan.plan()) n += r.kind == a || (!b.empty() && r.kind == b);
  return n;
}

TEST(CompiledNetworkTest, LenetSparseMatchesInterpreted) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 4;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 21);
  const Tensor batch = random_batch(3, 1, 16, 22);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  expect_bitwise(compiled.run(batch), expect, "lenet 0.9 sparse, auto backend");

  // The plan actually went sparse: LeNet has 3 linear + 2 conv layers.
  EXPECT_EQ(count_kinds(compiled, "csr-linear", "csr-conv"), 5);
  EXPECT_GT(compiled.overall_sparsity(), 0.85);
}

TEST(CompiledNetworkTest, LenetDensePlanMatchesInterpreted) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 3;
  const auto net = nn::make_lenet5(spec);
  const Tensor batch = random_batch(2, 1, 16, 23);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  CompileOptions opts;
  opts.backend = Backend::kDense;
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
  expect_bitwise(compiled.run(batch), expect, "lenet dense plan");
  for (const auto& r : compiled.plan()) {
    EXPECT_TRUE(r.kind.find("csr") == std::string::npos) << r.layer << " " << r.kind;
  }
}

TEST(CompiledNetworkTest, VggSparseMatchesInterpreted) {
  nn::ModelSpec spec;
  spec.image_size = 32;
  spec.timesteps = 2;
  spec.width_scale = 0.125;
  const auto net = nn::make_vgg16(spec);
  apply_random_masks(*net, 0.95, 31);
  const Tensor batch = random_batch(2, 3, 32, 32);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  expect_bitwise(compiled.run(batch), expect, "vgg 0.95 sparse");
}

TEST(CompiledNetworkTest, ResnetSparseMatchesInterpreted) {
  nn::ModelSpec spec;
  spec.image_size = 16;
  spec.timesteps = 2;
  spec.width_scale = 0.0625;
  const auto net = nn::make_resnet19(spec);
  apply_random_masks(*net, 0.8, 41);
  const Tensor batch = random_batch(2, 3, 16, 42);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  expect_bitwise(compiled.run(batch), expect, "resnet 0.8 sparse");

  // Residual blocks roll their weight ops into one report entry.
  bool has_residual = false;
  for (const auto& r : compiled.plan()) has_residual |= r.kind == "residual";
  EXPECT_TRUE(has_residual);
}

// Heuristic pin: structured masks get no format of their own. A 2:4
// projection and a 4x4 block mask both lower every weight layer to CSR
// under kAuto and stay bitwise equal to predict.
TEST(CompiledNetworkTest, NmProjectedNetworkAutoStaysCsr) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  const auto report = core::project_network_nm(*net, {2, 4});
  ASSERT_EQ(report.size(), 5U);  // 2 conv + 3 linear prunable weights
  for (const auto& r : report) EXPECT_NEAR(r.sparsity, 0.5, 0.05) << r.param;
  const Tensor batch = random_batch(2, 1, 16, 52);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  expect_bitwise(compiled.run(batch), expect, "lenet 2:4 projected");

  // 2:4 leaves every layer exactly 50% sparse: at min_sparsity, so CSR.
  EXPECT_EQ(count_kinds(compiled, "csr-linear", "csr-conv"), 5);
}

TEST(CompiledNetworkTest, BlockMaskedNetworkAutoCompilesToCsr) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  difftest::apply_block_masks(*net, /*keep=*/0.25, 53);
  const Tensor batch = random_batch(2, 1, 16, 54);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  expect_bitwise(compiled.run(batch), expect, "lenet 4x4 block mask");

  // Keeping a quarter of the blocks leaves every layer well above
  // min_sparsity.
  EXPECT_EQ(count_kinds(compiled, "csr-linear", "csr-conv"), 5);
}

TEST(CompiledNetworkTest, ForcedBackendOverridesHeuristic) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 1;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 61);  // unstructured: auto would pick CSR
  const Tensor batch = random_batch(2, 1, 8, 62);
  warm_up(*net, batch);
  const Tensor expect = net->predict(batch);

  for (const Backend backend : {Backend::kDense, Backend::kCsr}) {
    CompileOptions opts;
    opts.backend = backend;
    const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
    const std::string tag = difftest::backend_name(backend);
    EXPECT_EQ(count_kinds(compiled, tag + "-linear", tag + "-conv"), 5) << tag;
    expect_bitwise(compiled.run(batch), expect, "forced backend " + tag);
  }
}

TEST(CompiledNetworkTest, ForcedEventActivationMatchesInterpretedOnAllBackends) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 3;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 71);
  const Tensor batch = random_batch(2, 1, 16, 72);
  warm_up(*net, batch);
  const Tensor expect = net->predict(batch);

  for (const Backend backend : {Backend::kDense, Backend::kCsr}) {
    CompileOptions opts;
    opts.backend = backend;
    opts.activation_mode = ActivationMode::kEvent;
    const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
    // Every weight op runs the event path, whatever its kernel.
    for (const auto& r : compiled.plan()) {
      if (r.weights > 0) {
        EXPECT_TRUE(r.event) << r.layer << " " << r.kind;
      }
    }
    expect_bitwise(compiled.run(batch), expect,
                   std::string("event activation, backend ") +
                       difftest::backend_name(backend));
  }
}

TEST(CompiledNetworkTest, AutoActivationGoesEventOnlyBehindSpikingInputs) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 81);
  // No warm-up: no recorded rates, so kAuto plans on the fallback
  // estimate (0.15 <= event_max_rate) for every spike-valued input.
  CompileOptions opts;
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);

  // The first conv consumes the direct-encoded analog image — never
  // event-driven under kAuto; the weight layers behind LIF outputs are.
  bool saw_first_weight = false;
  int event_ops = 0;
  for (const auto& r : compiled.plan()) {
    if (r.weights == 0) continue;
    if (!saw_first_weight) {
      EXPECT_FALSE(r.event) << "first weight layer sees analog input: " << r.layer;
      saw_first_weight = true;
    }
    event_ops += r.event;
  }
  EXPECT_GT(event_ops, 0);

  // Forcing dense activations turns the event path off everywhere.
  opts.activation_mode = ActivationMode::kDense;
  const CompiledNetwork dense_act = CompiledNetwork::compile(*net, opts);
  for (const auto& r : dense_act.plan()) EXPECT_FALSE(r.event) << r.layer;

  // Rates above the bar keep the plan on dense activations.
  opts.activation_mode = ActivationMode::kAuto;
  opts.firing_rate_estimate = 0.9;
  const CompiledNetwork busy = CompiledNetwork::compile(*net, opts);
  for (const auto& r : busy.plan()) EXPECT_FALSE(r.event) << r.layer;
}

TEST(CompiledNetworkTest, FromCheckpointServesWithoutATrainingNetwork) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 91);
  const Tensor batch = random_batch(2, 1, 16, 92);
  warm_up(*net, batch);  // make BN running statistics non-trivial
  const Tensor expect = net->predict(batch);

  const std::string path = ::testing::TempDir() + "/compiled_from_checkpoint.ndck";
  nn::save_checkpoint_file(path, *net, nn::CheckpointMeta{"lenet5", spec});

  const CompiledNetwork compiled = CompiledNetwork::from_checkpoint(path);
  expect_bitwise(compiled.run(batch), expect, "compiled from checkpoint");
  EXPECT_GT(compiled.overall_sparsity(), 0.85);

  // v1 checkpoints carry no architecture record and must be rejected.
  const std::string v1_path = ::testing::TempDir() + "/params_only.ndck";
  nn::save_checkpoint_file(v1_path, *net);
  EXPECT_THROW((void)CompiledNetwork::from_checkpoint(v1_path), std::runtime_error);
}

TEST(CompiledNetworkTest, PruneThresholdDropsTinyWeights) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 1;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.5, 51);

  CompileOptions strict;
  strict.backend = Backend::kCsr;  // CSR storage counts individual nonzeros
  const CompiledNetwork base = CompiledNetwork::compile(*net, strict);

  CompileOptions pruned = strict;
  pruned.prune_threshold = 0.05F;  // drop small surviving weights too
  const CompiledNetwork trimmed = CompiledNetwork::compile(*net, pruned);
  EXPECT_LT(trimmed.stored_weights(), base.stored_weights());
}

TEST(CompiledNetworkTest, SummaryAndReports) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 61);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  EXPECT_EQ(compiled.timesteps(), 2);
  EXPECT_FALSE(compiled.plan().empty());
  const std::string text = compiled.summary();
  EXPECT_NE(text.find("csr-conv"), std::string::npos);
  EXPECT_NE(text.find("csr-linear"), std::string::npos);
}

TEST(SpikeBatchTest, ScanAndBuilderAgreeOnActiveIndices) {
  Tensor t(Shape{3, 4});
  // Row 0: {1, 3} active; row 1: silent; row 2: all active.
  t.at(0, 1) = 1.0F;
  t.at(0, 3) = 0.5F;
  for (int64_t c = 0; c < 4; ++c) t.at(2, c) = 1.0F;

  const SpikeBatch scanned = SpikeBatch::scan(t);
  EXPECT_EQ(scanned.rows, 3);
  EXPECT_EQ(scanned.row_size, 4);
  EXPECT_NEAR(scanned.rate(), 6.0 / 12.0, 1e-12);
  ASSERT_EQ(scanned.active_count(0), 2);
  EXPECT_EQ(scanned.active_begin(0)[0], 1);
  EXPECT_EQ(scanned.active_begin(0)[1], 3);
  EXPECT_EQ(scanned.active_count(1), 0);
  ASSERT_EQ(scanned.active_count(2), 4);

  // The incremental builder (what neuron ops run) produces the same view
  // from ascending flat pushes.
  SpikeBatchBuilder builder(3, 4);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (t.at(i) != 0.0F) builder.push(i);
  }
  const SpikeBatch built = builder.finish();
  ASSERT_EQ(built.row_ptr, scanned.row_ptr);
  ASSERT_EQ(built.idx, scanned.idx);
}

TEST(CompiledNetworkTest, RejectsBadInputRank) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 1;
  const auto net = nn::make_lenet5(spec);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  EXPECT_THROW((void)compiled.run(Tensor(Shape{4})), std::invalid_argument);
}

TEST(CompiledNetworkTest, RejectsBadOptions) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 1;
  const auto net = nn::make_lenet5(spec);
  CompileOptions opts;
  opts.min_sparsity = -0.1;
  EXPECT_THROW((void)CompiledNetwork::compile(*net, opts), std::invalid_argument);
  opts = {};
  opts.prune_threshold = -1.0F;  // would silently compile all-dense under kAuto
  EXPECT_THROW((void)CompiledNetwork::compile(*net, opts), std::invalid_argument);
}

/// Mean ms of 5 calls, min over three passes after one warm-up: a
/// preempted pass only ever reads high, so the min is the stable
/// statistic on a shared box.
template <typename Call>
double min_pass_ms(Call&& call) {
  call();
  double best = 1e30;
  for (int pass = 0; pass < 3; ++pass) {
    const util::Stopwatch sw;
    for (int r = 0; r < 5; ++r) call();
    best = std::min(best, sw.millis() / 5);
  }
  return best;
}

// Speedup floors of the compiled plan over SpikingNetwork::predict:
// 0.70x the speedup the retired sparse-inference bench recorded at each
// sparsity in its checked-in snapshot (sparsity_sweep[].speedup, taken
// on a 1-core box), i.e. that bench's 30% regression tolerance.
constexpr double kSnapshotSpeedupAt090 = 2.36335;
constexpr double kSnapshotSpeedupAt095 = 2.3575;
constexpr double kSpeedupTolerance = 0.30;

/// lenet5 at batch 8, T=2, random masks: predict against the faster of
/// the CSR dense-activation plan and the kAuto plan.
///
/// The ratio depends on what the process allocated before. In a fresh
/// process glibc serves predict's large per-call buffers with fresh
/// pages; once the bigger networks elsewhere in this binary have been
/// freed, its dynamic mmap/trim thresholds sit higher, predict reads
/// ~2.5x faster and the plan's lead drops to ~1.4x. The floors were
/// measured in a fresh process, so the gate binds only when it is the
/// one test running (ctest registers it alone as runtime_speedup_gate).
TEST(CompiledNetworkTest, SparsePlanBeatsInterpretedAtHighSparsity) {
  if (const char* why = difftest::timing_gate_skip_reason()) GTEST_SKIP() << why;
  if (::testing::UnitTest::GetInstance()->test_to_run_count() != 1) {
    GTEST_SKIP() << "binds only when run alone: ctest -R runtime_speedup_gate";
  }
  nn::ModelSpec spec;
  spec.timesteps = 2;
  const Tensor batch = random_batch(8, spec.in_channels, spec.image_size, 123);
  for (const auto& [sparsity, snapshot] :
       {std::pair{0.9, kSnapshotSpeedupAt090}, std::pair{0.95, kSnapshotSpeedupAt095}}) {
    const auto net = nn::make_model("lenet5", spec);
    apply_random_masks(*net, sparsity, 7);
    CompileOptions csr_opts;
    csr_opts.activation_mode = ActivationMode::kDense;
    const CompiledNetwork csr_plan = CompiledNetwork::compile(*net, csr_opts);
    const CompiledNetwork auto_plan = CompiledNetwork::compile(*net);

    const double predict_ms = min_pass_ms([&] { (void)net->predict(batch); });
    const double csr_ms = min_pass_ms([&] { (void)csr_plan.run(batch); });
    const double auto_ms = min_pass_ms([&] { (void)auto_plan.run(batch); });
    const double speedup = predict_ms / std::min(csr_ms, auto_ms);
    const double floor = snapshot * (1.0 - kSpeedupTolerance);
    std::printf("sparsity %.2f: predict %.3f ms, csr %.3f ms, auto %.3f ms -> %.2fx "
                "(floor %.3fx)\n",
                sparsity, predict_ms, csr_ms, auto_ms, speedup, floor);
    EXPECT_GE(speedup, floor) << "sparsity " << sparsity;
  }
}

}  // namespace
}  // namespace ndsnn::runtime
