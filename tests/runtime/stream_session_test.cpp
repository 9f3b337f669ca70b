// StreamSession: the streaming execution subsystem's contract.
//
// The load-bearing property is bitwise equivalence: feeding T frames
// through a session one step() at a time must reproduce the
// whole-window Plan::execute pass exactly, per step, across every
// backend x activation mode, residual blocks included (and on quantised plans,
// where both sides share the same plan, the contract still holds
// bitwise). On top of that: the delta path must observably skip
// stateless stages whose step input is all +0.0, and only those (trace
// span + metric + InferenceResult::skipped_ops), reset() must restore first-step
// semantics, MaxPool and PLIF/ALIF stacks must stream and compile
// bitwise, and the per-event p99 of a stream must beat the whole-window
// pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "runtime/stream_session.hpp"
#include "runtime/trace.hpp"
#include "testing.hpp"
#include "util/metrics.hpp"
#include "util/stopwatch.hpp"

namespace ndsnn::runtime {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Stack frames time-major ([F*N, ...], row block t = frame t), the
/// layout DirectEncoder produces and Plan::execute_time_major runs.
Tensor concat_time_major(const std::vector<Tensor>& frames) {
  const int64_t per = frames[0].numel();
  std::vector<int64_t> dims{static_cast<int64_t>(frames.size()) * frames[0].dim(0)};
  for (int64_t d = 1; d < frames[0].rank(); ++d) dims.push_back(frames[0].dim(d));
  Tensor out(Shape{dims});
  for (std::size_t t = 0; t < frames.size(); ++t) {
    for (int64_t i = 0; i < per; ++i) {
      out.at(static_cast<int64_t>(t) * per + i) = frames[t].at(i);
    }
  }
  return out;
}

/// Row block t of a time-major output [F*N, C] as its own [N, C] tensor.
Tensor step_slice(const Tensor& window_out, int64_t t, int64_t rows_per_step) {
  const int64_t cols = window_out.numel() / window_out.dim(0);
  Tensor out(Shape{rows_per_step, cols});
  for (int64_t i = 0; i < rows_per_step * cols; ++i) {
    out.at(i) = window_out.at(t * rows_per_step * cols + i);
  }
  return out;
}

/// Per-step input frames for a scenario: one distinctly-salted batch
/// per step, with one all-zero frame mixed in so every scenario crosses
/// the delta path at least once. Always exactly cfg.timesteps frames —
/// LifOp::run_into splits the whole-window input into the plan's compiled
/// timesteps, so the window pass is the streamed run's sequential
/// reference only when the stream length matches the plan's T.
std::vector<Tensor> scenario_frames(const difftest::NetConfig& cfg) {
  const int64_t steps = cfg.timesteps;
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < steps; ++t) {
    difftest::NetConfig salted = cfg;
    if (t == steps / 2 && cfg.input != difftest::InputKind::kSaturated) {
      salted.input = difftest::InputKind::kSilent;
    }
    frames.push_back(difftest::random_batch(salted, /*salt=*/100 + static_cast<uint64_t>(t)));
  }
  return frames;
}

/// Assert streamed-per-step == whole-window bitwise for one compiled
/// plan (both sides run the SAME plan, so the check is exact even on
/// quantised plans).
void expect_stream_matches_window(const CompiledNetwork& compiled,
                                  const std::vector<Tensor>& frames,
                                  const std::string& context) {
  const Tensor window_out = compiled.plan_ir().execute_time_major(concat_time_major(frames));
  const int64_t rows = frames[0].dim(0);

  StreamSession serial(compiled);
  for (std::size_t t = 0; t < frames.size(); ++t) {
    const InferenceResult r = serial.step(frames[t]);
    difftest::expect_bitwise(r.logits, step_slice(window_out, static_cast<int64_t>(t), rows),
                             context + " serial step " + std::to_string(t));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(StreamSessionTest, StreamedMatchesWholeWindowBitwiseAcrossBackends) {
  const int configs = std::max(4, difftest::env_int("NDSNN_DIFF_CONFIGS", 200) / 8);
  tensor::Rng rng(difftest::env_seed());
  std::vector<difftest::NetConfig> cases;
  // Pinned: an all-silent scenario (every step exercises the delta
  // path), a saturated one (event ops at full rate) and a resnet19 (its
  // residual blocks carry nested neuron state) regardless of seed and
  // sweep size.
  difftest::NetConfig pinned;
  pinned.image = 8;
  pinned.seed = 97;
  pinned.sparsity = 0.9;
  pinned.timesteps = 4;  // a real multi-step stream, silent frame mid-window
  pinned.input = difftest::InputKind::kSilent;
  cases.push_back(pinned);
  pinned.input = difftest::InputKind::kSaturated;
  cases.push_back(pinned);
  difftest::NetConfig resnet;
  resnet.arch = "resnet19";
  resnet.image = 16;
  resnet.channels = 3;
  resnet.width_scale = 0.0625;
  resnet.timesteps = 3;
  resnet.sparsity = 0.9;
  resnet.seed = 97;
  cases.push_back(resnet);
  for (int i = 0; i < configs; ++i) cases.push_back(difftest::random_config(rng));

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const difftest::NetConfig& cfg = cases[i];
    SCOPED_TRACE("config " + std::to_string(i) + ": " + cfg.str());
    const auto net = difftest::build_network(cfg);
    const std::vector<Tensor> frames = scenario_frames(cfg);

    for (const Backend backend : difftest::all_backends()) {
      for (const ActivationMode activation : difftest::all_activation_modes()) {
        const CompiledNetwork compiled = CompiledNetwork::compile(
            *net, difftest::options_for(backend, activation));
        expect_stream_matches_window(
            compiled, frames,
            std::string("backend=") + difftest::backend_name(backend) +
                " activation=" + difftest::activation_name(activation));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(StreamSessionTest, StreamedMatchesWholeWindowOnQuantisedPlans) {
  // Both sides of the equivalence run the SAME quantised plan, so the
  // bitwise contract survives quantisation (no cross-precision
  // comparison is involved — that axis lives in the lockstep sweep).
  const int configs = std::max(2, difftest::env_int("NDSNN_DIFF_CONFIGS", 200) / 40);
  tensor::Rng rng(difftest::env_seed() ^ 0xABCDULL);
  for (int i = 0; i < configs; ++i) {
    const difftest::NetConfig cfg = difftest::random_config(rng);
    SCOPED_TRACE("config " + std::to_string(i) + ": " + cfg.str());
    const auto net = difftest::build_network(cfg);
    const std::vector<Tensor> frames = scenario_frames(cfg);
    for (const WeightPrecision precision : difftest::quantised_precisions()) {
      CompileOptions opts = difftest::options_for();
      opts.weight_precision = precision;
      const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
      expect_stream_matches_window(
          compiled, frames,
          std::string("precision=") +
              (precision == WeightPrecision::kInt4 ? "int4" : "int8"));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(StreamSessionTest, EmptyStepSkipsStatelessStagesObservably) {
  difftest::NetConfig cfg;
  cfg.image = 8;
  cfg.seed = 1234;
  cfg.sparsity = 0.9;
  const auto net = difftest::build_network(cfg);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, difftest::options_for());
  StreamSession session(compiled);

  const Tensor zero(Shape{cfg.batch, cfg.channels, cfg.image, cfg.image});
  auto& skip_counter = util::MetricsRegistry::global().counter("stream.delta_skips");

  // First empty step: the zero-input caches are cold, every stage
  // actually runs (cache fill is not a skip).
  const InferenceResult first = session.step(zero);
  EXPECT_EQ(first.skipped_ops, 0);
  EXPECT_EQ(session.delta_skips(), 0);

  // Second empty step: the input stage (and any stage whose input is a
  // provably-empty spike train again) must hit the cache. Observable
  // three ways: the per-step skip count, the session/metric totals, and
  // a "delta-skip" trace span.
  const double metric_before = skip_counter.value();
  trace::set_enabled(true);
  trace::reset();
  const InferenceResult second = session.step(zero);
  trace::set_enabled(false);
  EXPECT_GT(second.skipped_ops, 0);
  EXPECT_EQ(session.delta_skips(), second.skipped_ops);
  EXPECT_EQ(skip_counter.value() - metric_before,
            static_cast<double>(second.skipped_ops));
  int delta_spans = 0;
  for (const trace::Span& s : trace::snapshot()) {
    if (s.name == "delta-skip") {
      ++delta_spans;
      EXPECT_STREQ(s.cat, "stream");
    }
  }
  trace::reset();
  EXPECT_EQ(delta_spans, second.skipped_ops);

  // Skipping must not change the arithmetic: the two empty steps are
  // steps 0 and 1 of an all-zero window.
  const Tensor window_out =
      compiled.plan_ir().execute_time_major(concat_time_major({zero, zero}));
  difftest::expect_bitwise(first.logits, step_slice(window_out, 0, cfg.batch),
                           "first empty step");
  difftest::expect_bitwise(second.logits, step_slice(window_out, 1, cfg.batch),
                           "second empty step");
}

TEST(StreamSessionTest, ResetRestoresFirstStepSemantics) {
  difftest::NetConfig cfg;
  cfg.image = 8;
  cfg.seed = 77;
  cfg.sparsity = 0.8;
  cfg.timesteps = 3;
  const auto net = difftest::build_network(cfg);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, difftest::options_for());
  const std::vector<Tensor> frames = scenario_frames(cfg);

  StreamSession session(compiled);
  std::vector<Tensor> pass1;
  for (const Tensor& f : frames) pass1.push_back(session.step(f).logits);
  EXPECT_EQ(session.steps(), 3);

  // Without a reset the membrane state carries over: the same frames
  // must now produce a different first output (otherwise the session
  // holds no state at all and streaming is a sham). LIF dynamics on
  // non-trivial inputs diverge from the fresh-state trajectory.
  session.reset();
  EXPECT_EQ(session.steps(), 0);
  std::vector<Tensor> pass2;
  for (const Tensor& f : frames) pass2.push_back(session.step(f).logits);
  for (std::size_t t = 0; t < pass1.size(); ++t) {
    difftest::expect_bitwise(pass2[t], pass1[t], "replay after reset, step " +
                                                     std::to_string(t));
  }

  // reset() must also clear the batch-size pin: a different N succeeds.
  session.reset();
  const Tensor wider(Shape{cfg.batch + 1, cfg.channels, cfg.image, cfg.image});
  EXPECT_NO_THROW((void)session.step(wider));
  // ... and changing N mid-stream (without reset) is rejected.
  EXPECT_THROW((void)session.step(frames[0]), std::invalid_argument);
}

// Every stateless stage whose input is all +0.0 is delta-skipped, so a
// repeated silent frame skips the conv and, behind the silent LIF, the
// pool, flatten and linear. The conv has no bias, so zero frames keep
// the LIF silent.
TEST(StreamSessionTest, StagesBehindSilentLifAreDeltaSkipped) {
  constexpr int64_t kSteps = 4;
  tensor::Rng rng(4141);
  snn::LifConfig lif;
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  body->emplace<nn::LifActivation>(lif, kSteps);
  body->emplace<nn::AvgPool2d>(2);
  body->emplace<nn::Flatten>();
  body->emplace<nn::Linear>(4 * 4 * 4, 10, rng);
  const nn::SpikingNetwork net(std::move(body), kSteps);
  const CompiledNetwork compiled = CompiledNetwork::compile(net, difftest::options_for());

  const Tensor zero(Shape{2, 1, 8, 8});
  Tensor busy(Shape{2, 1, 8, 8});
  busy.fill_uniform(rng, 0.0F, 4.0F);
  const std::vector<Tensor> frames{zero, zero, busy, zero};
  const Plan& plan = compiled.plan_ir();
  ASSERT_EQ(plan.reports[1].kind, "lif");
  ASSERT_EQ(plan.reports[2].kind, "pool");

  const Tensor window_out = plan.execute_time_major(concat_time_major(frames));
  StreamSession session(compiled);
  std::vector<int64_t> skipped;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    const InferenceResult r = session.step(frames[t]);
    skipped.push_back(r.skipped_ops);
    difftest::expect_bitwise(r.logits, step_slice(window_out, static_cast<int64_t>(t), 2),
                             "step " + std::to_string(t));
  }
  // Step 0 fills the zero-input caches. Step 1 skips the conv (silent
  // frame), then the pool, flatten and linear behind the silent LIF.
  EXPECT_EQ(skipped[0], 0);
  EXPECT_EQ(skipped[1], 4);
}

// A frame of -0.0F is not silent (its sign bits are set), so the session
// runs the ops on it instead of answering from the caches a +0.0F frame
// filled. A max pool keeps the sign of zero, so a cached +0.0F answer
// would show in the output.
TEST(StreamSessionTest, NegativeZeroFrameIsNotDeltaSkipped) {
  constexpr int64_t kSteps = 3;
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::MaxPool2d>(2);
  body->emplace<nn::Flatten>();
  const nn::SpikingNetwork net(std::move(body), kSteps);
  const CompiledNetwork compiled = CompiledNetwork::compile(net, difftest::options_for());

  const Tensor zero(Shape{2, 1, 4, 4});
  Tensor negative_zero(Shape{2, 1, 4, 4});
  negative_zero.fill(-0.0F);
  const std::vector<Tensor> frames{zero, negative_zero, zero};
  const Tensor window_out = compiled.plan_ir().execute_time_major(concat_time_major(frames));
  StreamSession session(compiled);
  std::vector<int64_t> skipped;
  for (std::size_t t = 0; t < frames.size(); ++t) {
    const InferenceResult r = session.step(frames[t]);
    skipped.push_back(r.skipped_ops);
    difftest::expect_bitwise(r.logits, step_slice(window_out, static_cast<int64_t>(t), 2),
                             "step " + std::to_string(t));
  }
  EXPECT_TRUE(std::signbit(window_out.at(2 * 4))) << "the window keeps -0.0 at step 1";
  // Step 0 fills the caches, step 1 runs both ops, and step 2 reuses the
  // +0.0 caches of step 0.
  EXPECT_EQ(skipped, (std::vector<int64_t>{0, 0, 2}));
}

/// Nearest-rank percentile (rank ceil(q * n), as ExecutorStats and
/// HistogramSnapshot compute it).
double nearest_rank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// The point of streaming: an event's result is ready after its own
// step, not after the whole window. Masked LeNet-5 (1x16x16, 5% of each
// weight kept) compiled for T = 32, batch 4, every 2nd frame silent so
// the delta path runs, seed 42. The window pass is warmed once and
// timed kRuns times; the session is warmed with one step and reset,
// then streams the same 32 frames kRuns times with a reset() between
// runs. p99 over the 32 * kRuns steps is the 4th slowest, not the
// maximum, so one host stall cannot decide the gate, and it is compared
// against the median window time. Holds on any core count: one step
// can never legitimately take longer than the whole window.
TEST(StreamSessionTest, PerEventP99BeatsWholeWindow) {
  if (const char* why = difftest::timing_gate_skip_reason()) GTEST_SKIP() << why;
  constexpr int kRuns = 10;
  constexpr int64_t kFrames = 32;
  constexpr int64_t kBatch = 4;
  constexpr uint64_t kSeed = 42;
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = kFrames;  // the window pass is the stream's reference only at T == frames
  spec.seed = kSeed;
  const auto net = nn::make_lenet5(spec);
  difftest::apply_random_masks(*net, 0.95, kSeed + 1);
  const CompiledNetwork compiled = CompiledNetwork::compile(*net);

  tensor::Rng rng(kSeed + 17);
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < kFrames; ++t) {
    Tensor frame(Shape{kBatch, 1, 16, 16});
    // [0, 4) drives the LIF layers to fire; odd frames stay all-zero.
    if (t % 2 == 0) frame.fill_uniform(rng, 0.0F, 4.0F);
    frames.push_back(std::move(frame));
  }

  const Tensor window = concat_time_major(frames);
  (void)compiled.plan_ir().execute_time_major(window);
  std::vector<double> runs_ms;
  for (int run = 0; run < kRuns; ++run) {
    const util::Stopwatch sw;
    (void)compiled.plan_ir().execute_time_major(window);
    runs_ms.push_back(sw.millis());
  }
  const double window_ms = nearest_rank(runs_ms, 0.5);

  StreamSession session(compiled);
  (void)session.step(frames[0]);
  std::vector<double> step_ms;
  for (int run = 0; run < kRuns; ++run) {
    session.reset();
    for (const Tensor& frame : frames) step_ms.push_back(session.step(frame).latency_ms);
  }
  EXPECT_GT(session.delta_skips(), 0) << "the silent frames never took the delta path";

  const double p99 = nearest_rank(step_ms, 0.99);
  std::printf("per-event p99 %.3f ms vs median whole-window %.3f ms\n", p99, window_ms);
  EXPECT_GT(p99, 0.0);
  EXPECT_LT(p99, window_ms);
}

TEST(StreamSessionTest, MaxPoolPlanMatchesPredictAndStreamsBitwise) {
  // No zoo model uses MaxPool2d (both poolers are AvgPool2d), so it is
  // pinned on a purpose-built stack: spike trains out of the LIF flow
  // through MaxPool into an event-driven Linear, which rescans them.
  // Forced-event compile against the interpreted reference pins the
  // arithmetic.
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 3;
  spec.seed = 4242;
  tensor::Rng rng(spec.seed);
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  body->emplace<nn::BatchNorm2d>(4);
  body->emplace<nn::LifActivation>(spec.lif, spec.timesteps);
  body->emplace<nn::MaxPool2d>(2);
  body->emplace<nn::Flatten>();
  body->emplace<nn::Linear>(4 * 4 * 4, 32, rng);
  body->emplace<nn::LifActivation>(spec.lif, spec.timesteps);
  body->emplace<nn::Linear>(32, 10, rng);
  auto net = std::make_unique<nn::SpikingNetwork>(std::move(body), spec.timesteps);
  difftest::apply_random_masks(*net, 0.9, spec.seed + 1);

  Tensor batch(Shape{2, 1, 8, 8});
  tensor::Rng batch_rng(spec.seed + 2);
  batch.fill_uniform(batch_rng, 0.0F, 1.0F);
  difftest::warm_up(*net, batch);
  const Tensor want = net->predict(batch);

  CompileOptions opts;
  opts.activation_mode = ActivationMode::kEvent;
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, opts);
  difftest::expect_bitwise(compiled.infer({batch, {}}).logits, want,
                           "maxpool event plan vs interpreted");

  // And the streaming contract holds over the same plan.
  std::vector<Tensor> frames;
  for (int64_t t = 0; t < spec.timesteps; ++t) frames.push_back(batch);
  expect_stream_matches_window(compiled, frames, "maxpool stream");
}

TEST(StreamSessionTest, PlifAlifPlanMatchesPredictAndStreamsBitwise) {
  // No zoo model uses PLIF or ALIF, so both are pinned on a purpose-built
  // stack: PLIF (trained leak away from LIF's 0.5 default) after a conv,
  // ALIF after a linear. Every backend x activation mode must match the
  // interpreted reference bitwise and stream bitwise over its own plan.
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 8;
  spec.timesteps = 4;
  spec.seed = 4343;
  tensor::Rng rng(spec.seed);
  snn::PlifConfig plif_cfg;
  plif_cfg.initial_alpha = 0.8F;
  plif_cfg.threshold = 0.5F;
  snn::AlifConfig alif_cfg;
  alif_cfg.alpha = 0.7F;
  alif_cfg.beta = 0.5F;
  alif_cfg.threshold = 0.1F;  // fires often enough that the adaptation matters
  auto body = std::make_unique<nn::Sequential>();
  body->emplace<nn::Conv2d>(1, 4, 3, 1, 1, rng);
  body->emplace<nn::BatchNorm2d>(4);
  auto& plif = body->emplace<nn::PlifActivation>(plif_cfg, spec.timesteps);
  body->emplace<nn::AvgPool2d>(2);
  body->emplace<nn::Flatten>();
  body->emplace<nn::Linear>(4 * 4 * 4, 32, rng);
  const auto& alif = body->emplace<nn::AlifActivation>(alif_cfg, spec.timesteps);
  body->emplace<nn::Linear>(32, 10, rng);
  auto net = std::make_unique<nn::SpikingNetwork>(std::move(body), spec.timesteps);
  difftest::apply_random_masks(*net, 0.5, spec.seed + 1);

  Tensor batch(Shape{2, 1, 8, 8});
  tensor::Rng batch_rng(spec.seed + 2);
  batch.fill_uniform(batch_rng, 0.0F, 2.0F);
  difftest::warm_up(*net, batch);
  const Tensor want = net->predict(batch);
  // Both neuron layers must actually fire, or the check is vacuous.
  EXPECT_GT(plif.last_spike_rate(), 0.0);
  EXPECT_LT(plif.last_spike_rate(), 1.0);
  EXPECT_GT(alif.last_spike_rate(), 0.0);
  EXPECT_LT(alif.last_spike_rate(), 1.0);
  EXPECT_NE(plif.alpha(), 0.5F);

  std::vector<Tensor> frames;
  for (int64_t t = 0; t < spec.timesteps; ++t) {
    Tensor frame(batch.shape());
    frame.fill_uniform(batch_rng, 0.0F, 2.0F);
    frames.push_back(std::move(frame));
  }
  for (const Backend backend : {Backend::kDense, Backend::kCsr}) {
    for (const ActivationMode activation : difftest::all_activation_modes()) {
      const std::string context = std::string("backend=") + difftest::backend_name(backend) +
                                  " activation=" + difftest::activation_name(activation);
      const CompiledNetwork compiled =
          CompiledNetwork::compile(*net, difftest::options_for(backend, activation));
      difftest::expect_bitwise(compiled.infer({batch, {}}).logits, want,
                               context + " vs interpreted");
      if (::testing::Test::HasFatalFailure()) return;
      expect_stream_matches_window(compiled, frames, context + " stream");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // A leak written through params(), as Sgd::step and load_checkpoint
  // do, must reach compile() and name() before any forward runs.
  plif.params()[0].value->at(0) = 2.5F;
  const std::string alpha = "alpha=" + std::to_string(1.0F / (1.0F + std::exp(-2.5F)));
  EXPECT_NE(plif.name().find(alpha), std::string::npos) << plif.name();
  const CompiledNetwork compiled = CompiledNetwork::compile(*net, difftest::options_for());
  difftest::expect_bitwise(compiled.infer({batch, {}}).logits, net->predict(batch),
                           "leak written through params()");
}

}  // namespace
}  // namespace ndsnn::runtime
