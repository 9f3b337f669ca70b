// CompiledNetwork must reproduce SpikingNetwork::predict on the zoo
// models, dense and sparse, across T timesteps — plus the backend
// selection logic: heuristic kernel choice (sparse layers, unstructured
// or block-masked, lower to CSR), forced backends, and the compile-time
// kernel tier. Scenario plumbing (masking, warm-up, bitwise comparison)
// comes from the differential harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "nn/checkpoint.hpp"
#include "nn/models/zoo.hpp"
#include "nn/pool.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/ops/shape_ops.hpp"
#include "snn/encoder.hpp"
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
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "lenet 0.9 sparse, auto backend");

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
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "lenet dense plan");
  // Only the event path holds CSR (Wᵀ, whatever the backend).
  for (const auto& r : compiled.plan()) {
    EXPECT_EQ(r.kind.find("csr") != std::string::npos, r.event) << r.layer << " " << r.kind;
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
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "vgg 0.95 sparse");
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
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "resnet 0.8 sparse");

  // Residual blocks roll their weight ops into one report entry, and it
  // counts their stored bytes and carries their kernel tier (one tier is
  // resolved per plan, so the stem conv's) like any other weight op.
  const OpReport& stem = compiled.plan().front();
  ASSERT_GT(stem.weights, 0);
  bool has_residual = false;
  for (const auto& r : compiled.plan()) {
    if (r.weights > 0) {
      EXPECT_GT(r.bytes, 0) << r.kind << " " << r.layer;
    }
    if (r.kind != "residual") continue;
    has_residual = true;
    EXPECT_EQ(r.tier, stem.tier) << r.layer;
  }
  EXPECT_TRUE(has_residual);
}

// The hoisted prefix: conv1 -> BN1 run once on the N input rows and are
// tiled to T * N, bitwise equal to predict (which encodes first) at
// every T, on every backend. T = 1 takes the untiled path.
TEST(CompiledNetworkTest, HoistedPrefixMatchesPredictAcrossTimesteps) {
  for (const std::string arch : {"lenet5", "resnet19"}) {
    for (const int64_t t : {1, 3, 4}) {
      difftest::NetConfig cfg;
      cfg.arch = arch;
      cfg.image = 16;
      cfg.channels = 3;
      cfg.batch = 3;
      cfg.timesteps = t;
      cfg.width_scale = arch == "resnet19" ? 0.0625 : 1.0;
      cfg.sparsity = 0.9;
      cfg.seed = 61 + static_cast<uint64_t>(t);
      const auto net = difftest::build_network(cfg);
      const Tensor batch = difftest::random_batch(cfg);
      const Tensor expect = net->predict(batch);
      for (const Backend backend : difftest::all_backends()) {
        const CompiledNetwork compiled =
            CompiledNetwork::compile(*net, difftest::options_for(backend));
        const std::string ctx = cfg.str() + " backend " + difftest::backend_name(backend);
        // Conv -> BN lead every zoo network; the first neuron op ends it.
        ASSERT_EQ(compiled.plan_ir().invariant_prefix, 2U) << ctx;
        expect_bitwise(compiled.infer({batch, {}}).logits, expect, ctx);
      }
    }
  }
}

// The hoisted entry point and the whole-window one agree: execute() on
// the raw batch equals execute_time_major() on its direct encoding.
TEST(CompiledNetworkTest, ExecuteMatchesTimeMajorOnEncodedBatch) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 3;
  const auto net = nn::make_lenet5(spec);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  const Tensor batch = random_batch(2, 1, 8, 3);
  const Tensor encoded = snn::DirectEncoder().encode(batch, spec.timesteps);
  expect_bitwise(compiled.plan_ir().execute(batch),
                 compiled.plan_ir().execute_time_major(encoded), "lenet5 T=3");
}

// Heuristic pin: the sparsity bar is inclusive. An unstructured mask
// that leaves every prunable layer exactly 50% sparse lowers all five
// weight layers to CSR under kAuto, bitwise equal to predict. Block
// masks get no format of their own either (next test).
TEST(CompiledNetworkTest, HalfSparseNetworkAutoLowersToCsr) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, /*sparsity=*/0.5, 51);
  const Tensor batch = random_batch(2, 1, 16, 52);
  warm_up(*net, batch);

  const Tensor expect = net->predict(batch);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "lenet 50% unstructured");

  // 2 conv + 3 linear weight layers, each exactly at the 0.5 bar.
  EXPECT_EQ(count_kinds(compiled, "csr-linear", "csr-conv"), 5);
  for (const auto& r : compiled.plan()) {
    if (r.weights > 0) {
      EXPECT_EQ(r.sparsity, 0.5) << r.layer;
    }
  }
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
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "lenet 4x4 block mask");

  // Keeping a quarter of the blocks leaves every layer well above the
  // 0.5 sparsity bar.
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

  // The backend picks the dense-activation kernel; every event op holds
  // CSR Wᵀ whatever the backend.
  for (const Backend backend : {Backend::kDense, Backend::kCsr}) {
    for (const ActivationMode activation : {ActivationMode::kDense, ActivationMode::kEvent}) {
      CompileOptions opts;
      opts.backend = backend;
      opts.activation_mode = activation;
      const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
      const bool event = activation == ActivationMode::kEvent;
      const std::string tag =
          std::string(event ? "csr" : difftest::backend_name(backend)) + "-";
      const std::string what = std::string("forced backend ") +
                               difftest::backend_name(backend) + ", activation " +
                               difftest::activation_name(activation);
      EXPECT_EQ(count_kinds(compiled, tag + "linear", tag + "conv"), 5) << what;
      for (const auto& r : compiled.plan()) {
        if (r.weights > 0) {
          EXPECT_EQ(r.event, event) << what << ": " << r.layer;
        }
      }
      expect_bitwise(compiled.infer({batch, {}}).logits, expect, what);
    }
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
    // Every weight op runs the event path over CSR Wᵀ, whatever the
    // backend.
    for (const auto& r : compiled.plan()) {
      if (r.weights > 0) {
        EXPECT_TRUE(r.event) << r.layer << " " << r.kind;
        EXPECT_EQ(r.kind.rfind("csr-", 0), 0U) << r.layer << " " << r.kind;
      }
    }
    expect_bitwise(compiled.infer({batch, {}}).logits, expect,
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
  // estimate (0.15 <= the 0.25 event bar) for every spike-valued input.
  CompileOptions opts;
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);

  // The first conv consumes the direct-encoded analog image — never
  // event-driven under kAuto. conv2 and fc1 read pooled spikes, whose
  // union-bound estimate (4 x 0.15) is past the bar; fc2 and fc3 read
  // LIF3 and LIF4 directly and go event-driven.
  std::vector<bool> weight_events;
  for (const auto& r : compiled.plan()) {
    if (r.weights > 0) weight_events.push_back(r.event);
  }
  EXPECT_EQ(weight_events, (std::vector<bool>{false, false, false, true, true}));

  // Forcing dense activations turns the event path off everywhere.
  opts.activation_mode = ActivationMode::kDense;
  const CompiledNetwork dense_act = CompiledNetwork::compile(*net, opts);
  for (const auto& r : dense_act.plan()) EXPECT_FALSE(r.event) << r.layer;
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
  expect_bitwise(compiled.infer({batch, {}}).logits, expect, "compiled from checkpoint");
  EXPECT_GT(compiled.overall_sparsity(), 0.85);

  // v1 checkpoints carry no architecture record and must be rejected.
  const std::string v1_path = ::testing::TempDir() + "/params_only.ndck";
  nn::save_checkpoint_file(v1_path, *net);
  EXPECT_THROW((void)CompiledNetwork::from_checkpoint(v1_path), std::runtime_error);
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

// A plan resolves its SIMD kernel tier once, at compile time: one
// compiled under force(kScalar) still reports and runs kScalar after
// the force is cleared, bitwise equal to predict, while a plan compiled
// afterwards takes whatever kAuto resolves to again.
TEST(CompiledNetworkTest, PlanKeepsItsCompileTimeTierAfterForceClears) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 2;
  const auto net = nn::make_lenet5(spec);
  apply_random_masks(*net, 0.9, 81);
  const Tensor batch = random_batch(2, 1, 8, 82);
  warm_up(*net, batch);
  const Tensor expect = net->predict(batch);

  const CompiledNetwork scalar = [&] {
    const difftest::TierGuard guard(util::simd::Tier::kScalar);
    return CompiledNetwork::compile(*net);
  }();  // the guard has restored force(kAuto)
  const CompiledNetwork later = CompiledNetwork::compile(*net);

  for (const auto& r : scalar.plan()) {
    if (r.weights > 0) {
      EXPECT_EQ(r.tier, util::simd::Tier::kScalar) << r.layer;
    }
  }
  for (const auto& r : later.plan()) {
    if (r.weights > 0) {
      EXPECT_EQ(r.tier, util::simd::active()) << r.layer;
    }
  }
  expect_bitwise(scalar.infer({batch, {}}).logits, expect, "plan compiled under kScalar");
}

TEST(SpikeBatchTest, ScanListsNonzeroIndicesPerRow) {
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
  EXPECT_EQ(scanned.row_ptr, (std::vector<int64_t>{0, 2, 2, 6}));
  EXPECT_EQ(scanned.idx, (std::vector<int32_t>{1, 3, 0, 1, 2, 3}));

  // -0.0F compares equal to zero, so it is not an event; rows of a
  // rank-3 tensor span all trailing dimensions.
  Tensor signed_zero(Shape{2, 2, 3});
  signed_zero.at(1) = -0.0F;
  signed_zero.at(4) = 2.0F;
  signed_zero.at(7) = -0.0F;
  signed_zero.at(11) = -1.0F;
  const SpikeBatch z = SpikeBatch::scan(signed_zero);
  EXPECT_EQ(z.row_size, 6);
  EXPECT_EQ(z.row_ptr, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(z.idx, (std::vector<int32_t>{4, 5}));

  // All-silent rows: no indices, every offset zero.
  const SpikeBatch silent = SpikeBatch::scan(Tensor(Shape{4, 5}));
  EXPECT_EQ(silent.row_ptr, (std::vector<int64_t>(5, 0)));
  EXPECT_TRUE(silent.idx.empty());
  EXPECT_EQ(silent.rate(), 0.0);

  // Shape rejects zero dims, so no zero-row tensor exists; the smallest
  // input is a rank-0 scalar, scanned as one row of one element.
  EXPECT_THROW(Tensor(Shape{0, 4}), std::invalid_argument);
  Tensor scalar;
  const SpikeBatch quiet = SpikeBatch::scan(scalar);
  EXPECT_EQ(quiet.rows, 1);
  EXPECT_EQ(quiet.row_size, 1);
  EXPECT_EQ(quiet.row_ptr, (std::vector<int64_t>{0, 0}));
  scalar.at(0) = 3.0F;
  EXPECT_EQ(SpikeBatch::scan(scalar).idx, (std::vector<int32_t>{0}));
}

/// Plain AvgPool reference: each k x k window summed row by row from a
/// 0.0F start, times 1 / (k * k).
Tensor reference_avg_pool(const Tensor& x, int64_t k) {
  const int64_t m = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  Tensor out(Shape{m, c, h / k, w / k});
  const float inv = 1.0F / static_cast<float>(k * k);
  int64_t o = 0;
  for (int64_t p = 0; p < m * c; ++p) {
    for (int64_t oy = 0; oy < h / k; ++oy) {
      for (int64_t ox = 0; ox < w / k; ++ox) {
        float acc = 0.0F;
        for (int64_t dy = 0; dy < k; ++dy) {
          for (int64_t dx = 0; dx < k; ++dx) {
            acc += x.at(p * h * w + (oy * k + dy) * w + ox * k + dx);
          }
        }
        out.at(o++) = acc * inv;
      }
    }
  }
  return out;
}

// AvgPoolOp (plan), AvgPool2d::forward (training and predict) and a
// plain loop agree bit for bit, signed zeros included: the k == 2 body
// keeps the generic loop's (((0 + a) + b) + c) + d order, and a window
// of -0.0F averages to +0.0F because the sum starts at 0.0F.
TEST(AvgPoolKernelTest, PlanLayerAndReferenceAgreeBitwise) {
  Rng rng(91);
  for (const int64_t k : {1, 2, 3, 4}) {
    for (const int64_t channels : {1, 3, 5}) {
      const std::string context =
          "k=" + std::to_string(k) + " channels=" + std::to_string(channels);
      Tensor x(Shape{2, channels, 3 * k, 5 * k});
      x.fill_uniform(rng, -2.0F, 2.0F);
      for (int64_t i = 0; i < x.numel(); ++i) {
        if (i % 7 == 0) x.at(i) = -0.0F;
        if (i % 11 == 0) x.at(i) = i % 2 == 0 ? 1e-40F : -1e-40F;  // subnormal
      }
      // The first window holds only -0.0F.
      for (int64_t dy = 0; dy < k; ++dy) {
        for (int64_t dx = 0; dx < k; ++dx) x.at(dy * 5 * k + dx) = -0.0F;
      }
      const Tensor want = reference_avg_pool(x, k);
      ASSERT_EQ(std::bit_cast<uint32_t>(want.at(0)), 0U) << context;
      nn::AvgPool2d layer(k);
      expect_bitwise(layer.forward(x, /*training=*/false), want, context + " layer");
      const AvgPoolOp op("pool", k);
      expect_bitwise(op.run(Activation(x)).tensor, want, context + " plan op");
    }
  }
}

TEST(CompiledNetworkTest, RejectsBadInputRank) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 1;
  const auto net = nn::make_lenet5(spec);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);
  EXPECT_THROW((void)compiled.infer({Tensor(Shape{4}), {}}), std::invalid_argument);
}

TEST(CompiledNetworkTest, RejectsBadOptions) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 1;
  const auto net = nn::make_lenet5(spec);
  CompileOptions opts;
  opts.num_threads = -1;
  EXPECT_THROW((void)CompiledNetwork::compile(*net, opts), std::invalid_argument);
}

/// Fastest ms of one call of each of `calls`, over 30 passes after one
/// warm-up call each. Every pass times one call of each in turn, so a
/// slow stretch of a shared box lands on every candidate alike instead
/// of on one candidate's whole block; a preempted call only ever reads
/// high, so the min is the stable statistic.
std::vector<double> min_pass_ms(const std::vector<std::function<void()>>& calls) {
  for (const auto& call : calls) call();
  std::vector<double> best(calls.size(), 1e30);
  for (int pass = 0; pass < 30; ++pass) {
    for (std::size_t i = 0; i < calls.size(); ++i) {
      const util::Stopwatch sw;
      calls[i]();
      best[i] = std::min(best[i], sw.millis());
    }
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

/// lenet5 at batch 8, T=2, random masks: a warm predict against the
/// faster of the CSR dense-activation plan and the kAuto plan. Warming
/// predict makes the ratio independent of what the process ran before,
/// so the gate binds in the full runtime suite as well as alone (ctest
/// runtime_speedup_gate).
TEST(CompiledNetworkTest, SparsePlanBeatsInterpretedAtHighSparsity) {
  if (const char* why = difftest::timing_gate_skip_reason()) GTEST_SKIP() << why;
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

    // Warm predict up: one pass on a 4x larger batch frees buffers
    // bigger than any the timed batch allocates, which lifts glibc's
    // dynamic mmap/trim thresholds past them. That is the allocator
    // state a process reaches once larger networks have run; cold, every
    // predict call faults in fresh pages and flatters the plan.
    (void)net->predict(random_batch(4 * batch.dim(0), spec.in_channels, spec.image_size, 124));
    const std::vector<double> ms = min_pass_ms({[&] { (void)net->predict(batch); },
                                                [&] { (void)csr_plan.infer({batch, {}}); },
                                                [&] { (void)auto_plan.infer({batch, {}}); }});
    const double predict_ms = ms[0], csr_ms = ms[1], auto_ms = ms[2];
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
