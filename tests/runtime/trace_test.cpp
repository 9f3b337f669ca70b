// Tracing and plan profiling: the observability layer must never change
// what the runtime computes. Pins the span ring's wraparound contract,
// the bitwise identity of traced vs untraced execution across the
// differential harness, per-op span coverage of a compiled plan and of a
// streamed residual block, the PlanProfile aggregates, and the Chrome
// trace-event JSON shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/stream_session.hpp"
#include "runtime/trace.hpp"
#include "testing.hpp"

namespace ndsnn::difftest {
namespace {

using runtime::CompiledNetwork;
using runtime::PlanProfile;
namespace trace = runtime::trace;

/// Every trace test runs against process-global recorder state; the
/// fixture guarantees a clean, disabled recorder on both sides so suites
/// sharing the binary never see leftover spans.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::reset();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::reset();
    trace::set_ring_capacity(std::size_t{1} << 15);
  }
};

TEST_F(TraceTest, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(trace::enabled());
  {
    trace::ScopedSpan span("noop", "phase");
    span.rows(3);
  }
  EXPECT_TRUE(trace::snapshot().empty());
}

TEST_F(TraceTest, RingWrapsAroundKeepingNewest) {
  trace::Ring ring(4);
  for (int i = 0; i < 6; ++i) {
    trace::Span s;
    s.name = "s" + std::to_string(i);
    s.ts_us = static_cast<double>(i);
    ring.push(std::move(s));
  }
  EXPECT_EQ(ring.size(), 4U);
  EXPECT_EQ(ring.dropped(), 2);
  const std::vector<trace::Span> spans = ring.spans();
  ASSERT_EQ(spans.size(), 4U);
  // Oldest-first window over the newest 4 pushes: s2..s5.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name, "s" + std::to_string(i + 2));
  }
  ring.clear();
  EXPECT_EQ(ring.size(), 0U);
  EXPECT_EQ(ring.dropped(), 0);
}

TEST_F(TraceTest, RingBelowCapacityKeepsEverythingInOrder) {
  trace::Ring ring(8);
  for (int i = 0; i < 5; ++i) {
    trace::Span s;
    s.name = std::to_string(i);
    ring.push(std::move(s));
  }
  EXPECT_EQ(ring.size(), 5U);
  EXPECT_EQ(ring.dropped(), 0);
  const std::vector<trace::Span> spans = ring.spans();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].name, std::to_string(i));
  }
}

TEST_F(TraceTest, ScopedSpanRecordsWhenEnabled) {
  trace::set_enabled(true);
  {
    trace::ScopedSpan span("unit-test-span", "phase");
    span.rows(7);
    span.rate(0.25);
    span.bytes(1024);
  }
  trace::set_enabled(false);
  const std::vector<trace::Span> spans = trace::snapshot();
  const auto it = std::find_if(spans.begin(), spans.end(), [](const trace::Span& s) {
    return s.name == "unit-test-span";
  });
  ASSERT_NE(it, spans.end());
  EXPECT_STREQ(it->cat, "phase");
  EXPECT_EQ(it->rows, 7);
  EXPECT_DOUBLE_EQ(it->spike_rate, 0.25);
  EXPECT_EQ(it->bytes, 1024);
  EXPECT_GE(it->dur_us, 0.0);
}

TEST_F(TraceTest, TracedRunIsBitwiseIdenticalToUntraced) {
  tensor::Rng rng(env_seed() ^ 0x7ACEULL);
  const int configs = std::min(env_int("NDSNN_DIFF_CONFIGS", 8), 12);
  for (int c = 0; c < configs; ++c) {
    const NetConfig cfg = random_config(rng);
    const auto net = build_network(cfg);
    const CompiledNetwork plan = CompiledNetwork::compile(*net, options_for());
    const tensor::Tensor batch = random_batch(cfg);
    const tensor::Tensor untraced = plan.infer({batch, {}}).logits;
    trace::set_enabled(true);
    const tensor::Tensor traced = plan.infer({batch, {}}).logits;
    // Profiling on top of tracing must not perturb the output either.
    plan.enable_profiling(true);
    const tensor::Tensor both = plan.infer({batch, {}}).logits;
    plan.enable_profiling(false);
    trace::set_enabled(false);
    expect_bitwise(traced, untraced, "traced vs untraced: " + cfg.str());
    expect_bitwise(both, untraced, "traced+profiled vs untraced: " + cfg.str());
    trace::reset();
  }
}

TEST_F(TraceTest, EveryPlanOpEmitsASpan) {
  // Traced and profiled: one op span per plan op, in plan order. The
  // invariant prefix (conv1, BN1) runs once on the batch rows, every
  // later op on the time-major T * batch rows.
  NetConfig cfg;
  cfg.seed = env_seed() ^ 0x5FA7ULL;
  const auto net = build_network(cfg);
  const CompiledNetwork plan = CompiledNetwork::compile(*net, options_for());
  const std::size_t prefix = plan.plan_ir().invariant_prefix;
  ASSERT_EQ(prefix, 2U);
  trace::set_enabled(true);
  plan.enable_profiling(true);
  (void)plan.infer({random_batch(cfg), {}});
  plan.enable_profiling(false);
  trace::set_enabled(false);
  std::vector<trace::Span> op_spans;
  for (trace::Span& s : trace::snapshot()) {
    if (std::string(s.cat) == "op") op_spans.push_back(std::move(s));
  }
  ASSERT_EQ(op_spans.size(), plan.plan().size());
  for (std::size_t i = 0; i < op_spans.size(); ++i) {
    EXPECT_EQ(op_spans[i].name, plan.plan()[i].layer) << i;
    EXPECT_EQ(op_spans[i].rows, cfg.batch * (i < prefix ? 1 : cfg.timesteps))
        << op_spans[i].name;
  }
}

TEST_F(TraceTest, StreamedResidualBlocksEmitTheirSubOpSpans) {
  // A residual block runs its sub-ops the same way for a window and for
  // a streamed frame, so a traced stream step records every sub-op span
  // a traced infer records besides the plan-level ones.
  NetConfig cfg;
  cfg.arch = "resnet19";
  cfg.image = 16;
  cfg.channels = 3;
  cfg.width_scale = 0.0625;
  cfg.seed = env_seed() ^ 0x2E5ULL;
  const auto net = build_network(cfg);
  const CompiledNetwork plan = CompiledNetwork::compile(*net, options_for());
  runtime::StreamSession session(plan);
  const auto op_spans = [] {
    std::size_t n = 0;
    for (const trace::Span& s : trace::snapshot()) n += std::string(s.cat) == "op";
    trace::reset();
    return n;
  };
  trace::set_enabled(true);
  (void)plan.infer({random_batch(cfg), {}});
  const std::size_t window = op_spans();
  (void)session.step(random_batch(cfg));
  const std::size_t streamed = op_spans();
  trace::set_enabled(false);
  ASSERT_GT(window, plan.plan().size());
  EXPECT_EQ(streamed, window - plan.plan().size());
}

TEST_F(TraceTest, NeuronPhaseSpansRecordTheFiringRate) {
  // Every lif-dynamics span of a lenet5 plan records the rate its op
  // span observed.
  NetConfig cfg;
  cfg.seed = env_seed() ^ 0x11FULL;
  const auto net = build_network(cfg);
  const CompiledNetwork plan = CompiledNetwork::compile(*net, options_for());
  trace::set_enabled(true);
  (void)plan.infer({random_batch(cfg), {}});
  trace::set_enabled(false);
  std::vector<double> phase_rates, op_rates;
  for (const trace::Span& s : trace::snapshot()) {
    if (s.name == "lif-dynamics") phase_rates.push_back(s.spike_rate);
    if (std::string(s.cat) == "op" && s.kind == "lif") op_rates.push_back(s.spike_rate);
  }
  ASSERT_EQ(phase_rates.size(), 4U);
  ASSERT_EQ(op_rates.size(), 4U);
  for (std::size_t i = 0; i < phase_rates.size(); ++i) {
    EXPECT_GE(phase_rates[i], 0.0) << i;
    EXPECT_DOUBLE_EQ(phase_rates[i], op_rates[i]) << i;
  }
}

TEST_F(TraceTest, PlanProfileAggregatesRunsAndLatencies) {
  NetConfig cfg;
  cfg.seed = env_seed() ^ 0x90F11EULL;
  const auto net = build_network(cfg);
  const CompiledNetwork plan = CompiledNetwork::compile(*net, options_for());
  EXPECT_FALSE(plan.profiling_enabled());
  EXPECT_EQ(plan.profiled_executes(), 0);

  plan.enable_profiling(true);
  const tensor::Tensor batch = random_batch(cfg);
  constexpr int kRuns = 3;
  for (int r = 0; r < kRuns; ++r) (void)plan.infer({batch, {}});
  plan.enable_profiling(false);

  EXPECT_EQ(plan.profiled_executes(), kRuns);
  const std::vector<PlanProfile::OpStats> stats = plan.profile();
  ASSERT_EQ(stats.size(), plan.plan().size());
  bool saw_rate = false;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const PlanProfile::OpStats& s = stats[i];
    EXPECT_EQ(s.layer, plan.plan()[i].layer) << i;
    EXPECT_EQ(s.runs, kRuns) << s.layer;
    // The invariant prefix runs once on the batch rows; every later op
    // on the time-major T * batch rows.
    const int64_t steps = i < plan.plan_ir().invariant_prefix ? 1 : cfg.timesteps;
    EXPECT_EQ(s.rows, kRuns * cfg.batch * steps) << s.layer;
    EXPECT_GE(s.mean_us, 0.0) << s.layer;
    EXPECT_LE(s.p50_us, s.p95_us) << s.layer;
    if (s.ema_rate >= 0.0) {
      saw_rate = true;
      EXPECT_LE(s.ema_rate, 1.0) << s.layer;
    }
  }
  // A lenet5 plan has LIF layers, so at least one op observed a rate.
  EXPECT_TRUE(saw_rate);

  plan.profile_reset();
  EXPECT_EQ(plan.profiled_executes(), 0);
  for (const PlanProfile::OpStats& s : plan.profile()) {
    EXPECT_EQ(s.runs, 0) << s.layer;
    EXPECT_DOUBLE_EQ(s.ema_rate, -1.0) << s.layer;
  }
}

TEST_F(TraceTest, ProfilingDisabledRecordsNothing) {
  NetConfig cfg;
  cfg.seed = env_seed() ^ 0x0FFULL;
  const auto net = build_network(cfg);
  const CompiledNetwork plan = CompiledNetwork::compile(*net, options_for());
  (void)plan.infer({random_batch(cfg), {}});
  EXPECT_EQ(plan.profiled_executes(), 0);
  for (const PlanProfile::OpStats& s : plan.profile()) EXPECT_EQ(s.runs, 0);
}

TEST_F(TraceTest, ChromeJsonShape) {
  trace::Span s;
  s.name = "conv1";
  s.cat = "op";
  s.ts_us = 10.5;
  s.dur_us = 2.5;
  s.tid = 3;
  s.kind = "conv2d+event";
  s.rows = 8;
  s.spike_rate = 0.125;
  s.bytes = 4096;
  trace::Span bare;
  bare.name = "queue-wait";
  bare.cat = "queue";
  const std::string doc = trace::chrome_json({s, bare});
  EXPECT_NE(doc.find("\"displayTimeUnit\":\"ms\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"name\":\"conv1\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"cat\":\"op\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"tid\":3"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"kind\":\"conv2d+event\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"rows\":8"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"bytes\":4096"), std::string::npos) << doc;
  // Unset args are omitted: the bare span's args object is empty.
  EXPECT_NE(doc.find("\"name\":\"queue-wait\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"args\":{}"), std::string::npos) << doc;
}

TEST_F(TraceTest, SnapshotMergesAndSortsByStartTime) {
  trace::set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    trace::ScopedSpan span("ordered", "phase");
  }
  trace::set_enabled(false);
  const std::vector<trace::Span> spans = trace::snapshot();
  ASSERT_GE(spans.size(), 3U);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].ts_us, spans[i].ts_us);
  }
}

}  // namespace
}  // namespace ndsnn::difftest
