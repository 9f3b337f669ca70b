// BatchExecutor streaming sessions: persistent temporal state behind
// the serving queue. The contract under test: steps of a session run in
// submission order and reproduce a direct StreamSession bitwise (the
// executor adds scheduling, never arithmetic), stream steps are never
// admission-shed mid-stream, and closed/shutdown sessions shed cleanly
// instead of deadlocking or corrupting state.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "nn/models/zoo.hpp"
#include "runtime/batch_executor.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/stream_session.hpp"
#include "runtime/trace.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"
#include "util/fault_injection.hpp"

namespace ndsnn::runtime {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

CompiledNetwork make_compiled(uint64_t seed) {
  nn::ModelSpec spec;
  spec.in_channels = 1;
  spec.image_size = 16;
  spec.timesteps = 2;
  spec.seed = seed;
  const auto net = nn::make_lenet5(spec);
  Rng rng(seed + 1);
  for (const auto& p : net->params()) {
    if (!p.prunable) continue;
    const auto active = static_cast<int64_t>(static_cast<double>(p.value->numel()) * 0.1);
    const sparse::Mask mask(p.value->shape(), active, rng);
    mask.apply(*p.value);
  }
  return CompiledNetwork::compile(*net);
}

std::vector<Tensor> make_frames(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> frames;
  for (int64_t i = 0; i < count; ++i) {
    Tensor f(Shape{2, 1, 16, 16});
    // Strong currents so LIF state actually evolves across steps and an
    // out-of-order drain could not pass by accident.
    if (i % 3 != 2) f.fill_uniform(rng, 0.0F, 4.0F);
    frames.push_back(std::move(f));
  }
  return frames;
}

void expect_bitwise(const Tensor& got, const Tensor& want, const std::string& ctx) {
  ASSERT_EQ(got.shape(), want.shape()) << ctx;
  for (int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(got.at(i), want.at(i)) << ctx << " elem " << i;
  }
}

TEST(ExecutorStreamTest, StreamedStepsMatchDirectSessionInOrder) {
  const CompiledNetwork compiled = make_compiled(11);
  const std::vector<Tensor> frames = make_frames(8, 12);

  // Reference: a session driven directly, one step at a time.
  StreamSession reference(compiled);
  std::vector<Tensor> want;
  for (const Tensor& f : frames) want.push_back(reference.step(f).logits);

  // Same frames through the executor: submit everything up front (the
  // worker drains multiple queued steps in one pass) and the per-step
  // results must come back in temporal order, bitwise equal.
  BatchExecutor exec(compiled, 2);
  const uint64_t sid = exec.open_stream();
  EXPECT_EQ(exec.stats().open_streams, 1);
  std::vector<std::future<InferenceResult>> futures;
  for (const Tensor& f : frames) futures.push_back(exec.submit_stream(sid, f));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const InferenceResult r = futures[i].get();
    expect_bitwise(r.logits, want[i], "step " + std::to_string(i));
    EXPECT_GE(r.latency_ms, 0.0);
  }
  const ExecutorStats stats = exec.stats();
  EXPECT_EQ(stats.stream_steps, static_cast<int64_t>(frames.size()));
  exec.close_stream(sid);
  EXPECT_EQ(exec.stats().open_streams, 0);
}

TEST(ExecutorStreamTest, StepsQueuedBehindAStallDrainInOnePass) {
  using Clock = std::chrono::steady_clock;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const CompiledNetwork compiled = make_compiled(101);
  const std::vector<Tensor> frames = make_frames(6, 102);

  StreamSession reference(compiled);
  std::vector<Tensor> want;
  for (const Tensor& f : frames) want.push_back(reference.step(f).logits);

  // Hold the lone worker in a 50 ms stall while it drains step 0, so
  // steps 1-5 queue behind it and the next drain takes all of them.
  BatchExecutor exec(compiled, 1);
  const uint64_t sid = exec.open_stream();
  trace::set_enabled(true);
  trace::reset();
  util::fault::FaultInjector::global().arm("executor.stall",
                                           util::fault::Rule{1.0, 1, 0});
  // Each step's enqueue lies in [before[i], after[i]]; the stall starts
  // after before[0] and lasts at least 50 ms.
  std::vector<Clock::time_point> before(frames.size());
  std::vector<Clock::time_point> after(frames.size());
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    before[i] = Clock::now();
    futures.push_back(exec.submit_stream(sid, frames[i]));
    after[i] = Clock::now();
    if (i == 0) {
      while (util::fault::FaultInjector::global().fires("executor.stall") < 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  trace::set_enabled(false);
  util::fault::FaultInjector::global().reset();

  const auto stall_end = before[0] + std::chrono::milliseconds(50);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string ctx = "step " + std::to_string(i);
    expect_bitwise(results[i].logits, want[i], ctx);
    // latency_ms covers enqueue -> completion, so it holds the queue
    // wait: no step starts before the stall ends.
    EXPECT_GE(results[i].latency_ms, ms(stall_end - after[i])) << ctx;
    // Steps 1-5 complete in order; their enqueue instants are known
    // only to the submit spacing, so a latency may fall below the
    // previous step's by at most that spacing.
    if (i >= 2) {
      EXPECT_GE(results[i].latency_ms,
                results[i - 1].latency_ms - ms(after[i] - before[i - 1]))
          << ctx;
    }
  }
  int full_drains = 0;
  for (const trace::Span& span : trace::snapshot()) {
    if (span.name == "stream-drain" && span.rows == 5) ++full_drains;
  }
  trace::reset();
  EXPECT_EQ(full_drains, 1) << "steps 1-5 did not drain in one pass";
  EXPECT_EQ(exec.stats().stream_steps, static_cast<int64_t>(frames.size()));
  exec.close_stream(sid);
}

TEST(ExecutorStreamTest, StreamsInterleaveWithOneShotRequests) {
  const CompiledNetwork compiled = make_compiled(21);
  const std::vector<Tensor> frames = make_frames(4, 22);
  Tensor oneshot(Shape{2, 1, 16, 16});
  Rng rng(23);
  oneshot.fill_uniform(rng, 0.0F, 1.0F);

  BatchExecutor exec(compiled, 2);
  const Tensor want_oneshot = compiled.infer({oneshot, {}}).logits;
  StreamSession reference(compiled);

  const uint64_t sid = exec.open_stream();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto stream_future = exec.submit_stream(sid, frames[i]);
    auto request_future = exec.submit(InferenceRequest{oneshot, SloClass::kInteractive});
    expect_bitwise(stream_future.get().logits, reference.step(frames[i]).logits,
                   "interleaved step " + std::to_string(i));
    expect_bitwise(request_future.get().logits, want_oneshot,
                   "interleaved one-shot " + std::to_string(i));
  }
  exec.close_stream(sid);
}

TEST(ExecutorStreamTest, TwoSessionsKeepIndependentState) {
  const CompiledNetwork compiled = make_compiled(31);
  const std::vector<Tensor> frames = make_frames(5, 32);

  StreamSession reference(compiled);
  std::vector<Tensor> want;
  for (const Tensor& f : frames) want.push_back(reference.step(f).logits);

  // Both sessions see the same frames; if their neuron state were
  // shared, the second session's trajectory would diverge from the
  // fresh-state reference.
  BatchExecutor exec(compiled, 2);
  const uint64_t a = exec.open_stream();
  const uint64_t b = exec.open_stream();
  EXPECT_NE(a, b);
  EXPECT_EQ(exec.stats().open_streams, 2);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto fa = exec.submit_stream(a, frames[i]);
    auto fb = exec.submit_stream(b, frames[i]);
    expect_bitwise(fa.get().logits, want[i], "session a step " + std::to_string(i));
    expect_bitwise(fb.get().logits, want[i], "session b step " + std::to_string(i));
  }
  exec.close_stream(a);
  exec.close_stream(b);
  EXPECT_EQ(exec.stats().open_streams, 0);
}

TEST(ExecutorStreamTest, ClosedAndUnknownStreamsShedCleanly) {
  const CompiledNetwork compiled = make_compiled(41);
  const std::vector<Tensor> frames = make_frames(1, 42);

  BatchExecutor exec(compiled, 1);
  const uint64_t sid = exec.open_stream();
  (void)exec.submit_stream(sid, frames[0]).get();
  exec.close_stream(sid);
  exec.close_stream(sid);  // idempotent

  // A drained, closed stream ceases to exist: a late step is an unknown
  // id, same as an id that never was.
  EXPECT_THROW((void)exec.submit_stream(sid, frames[0]).get(), std::invalid_argument);
  EXPECT_THROW((void)exec.submit_stream(9999, frames[0]).get(), std::invalid_argument);

  // kStream does not belong on the request queue: steps need a session.
  EXPECT_THROW((void)exec.submit(InferenceRequest{frames[0], SloClass::kStream}),
               std::invalid_argument);
}

TEST(ExecutorStreamTest, ShutdownShedsStreamsAndRefusesNewOnes) {
  const CompiledNetwork compiled = make_compiled(51);
  const std::vector<Tensor> frames = make_frames(1, 52);

  BatchExecutor exec(compiled, 1);
  const uint64_t sid = exec.open_stream();
  (void)exec.submit_stream(sid, frames[0]).get();
  exec.shutdown();
  EXPECT_THROW((void)exec.submit_stream(sid, frames[0]).get(), ShedError);
  EXPECT_THROW((void)exec.open_stream(), ShedError);
}

TEST(ExecutorStreamTest, StreamQueueCapRejectsWithBackpressureError) {
  const CompiledNetwork compiled = make_compiled(61);
  // Frame 0 runs, kMaxStreamQueue frames fill the queue, the last one is
  // over the cap.
  constexpr auto kCap = static_cast<std::size_t>(BatchExecutor::kMaxStreamQueue);
  const std::vector<Tensor> frames = make_frames(static_cast<int64_t>(kCap) + 2, 62);

  StreamSession reference(compiled);
  std::vector<Tensor> want;
  for (const Tensor& f : frames) want.push_back(reference.step(f).logits);

  BatchExecutor exec(compiled, 1);
  const uint64_t sid = exec.open_stream();

  // Hold the single worker mid-drain with an injected 50 ms stall, so
  // steps pile onto the session queue deterministically instead of
  // racing a fast worker.
  util::fault::FaultInjector::global().arm("executor.stall",
                                           util::fault::Rule{1.0, 1, 0});
  std::vector<std::future<InferenceResult>> queued;
  queued.push_back(exec.submit_stream(sid, frames[0]));
  while (util::fault::FaultInjector::global().fires("executor.stall") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Worker is sleeping with frame 0 already taken off the queue: these
  // fill the cap (queued = kMaxStreamQueue)...
  for (std::size_t i = 1; i <= kCap; ++i) queued.push_back(exec.submit_stream(sid, frames[i]));
  // ...and the next is over it. Typed rejection through the future;
  // nothing about the session changed.
  auto over = exec.submit_stream(sid, frames[kCap + 1]);
  EXPECT_THROW((void)over.get(), BackpressureError);

  for (std::size_t i = 0; i < queued.size(); ++i) {
    expect_bitwise(queued[i].get().logits, want[i], "capped step " + std::to_string(i));
  }
  EXPECT_EQ(exec.stats().backpressure_rejections, 1);
  // The session state is exactly where the last accepted step left it:
  // resubmitting the rejected frame continues the reference bitwise.
  expect_bitwise(exec.submit_stream(sid, frames[kCap + 1]).get().logits, want[kCap + 1],
                 "resubmitted step");
  exec.close_stream(sid);
  util::fault::FaultInjector::global().reset();
}

TEST(ExecutorStreamTest, BackpressureErrorIsAShedErrorWithItsOwnType) {
  const CompiledNetwork compiled = make_compiled(71);
  const std::vector<Tensor> frames = make_frames(1, 72);

  BatchExecutor exec(compiled, 1);
  const uint64_t sid = exec.open_stream();
  util::fault::FaultInjector::global().arm("executor.backpressure",
                                           util::fault::Rule{1.0, 1, 0});
  auto rejected = exec.submit_stream(sid, frames[0]);
  // Contract both ways: a generic back-pressure handler catches it as
  // ShedError, a retry-aware one distinguishes the subtype.
  try {
    (void)rejected.get();
    FAIL() << "expected BackpressureError";
  } catch (const ShedError& e) {
    EXPECT_NE(dynamic_cast<const BackpressureError*>(&e), nullptr)
        << "kBackpressure must stay a distinct type under ShedError";
  }
  // The rejected step never touched the session: the next submit runs
  // from clean state, matching a fresh reference.
  StreamSession reference(compiled);
  expect_bitwise(exec.submit_stream(sid, frames[0]).get().logits,
                 reference.step(frames[0]).logits, "post-rejection step");
  exec.close_stream(sid);
  util::fault::FaultInjector::global().reset();
}

TEST(ExecutorStreamTest, CloseStreamRacingShutdownNeverHangsOrCrashes) {
  const CompiledNetwork compiled = make_compiled(81);
  const std::vector<Tensor> frames = make_frames(2, 82);

  // The race under test (and under TSan in CI): close_stream and
  // shutdown interleaving arbitrarily with steps in flight. Legal
  // outcomes per step: a value, or ShedError. Never a hang, never an
  // unresolved future, never a crash.
  for (int round = 0; round < 10; ++round) {
    BatchExecutor exec(compiled, 2);
    const uint64_t sid = exec.open_stream();
    auto s0 = exec.submit_stream(sid, frames[0]);
    auto s1 = exec.submit_stream(sid, frames[1]);
    std::thread closer([&] { exec.close_stream(sid); });
    std::thread stopper([&] { exec.shutdown(); });
    for (auto* f : {&s0, &s1}) {
      try {
        (void)f->get();
      } catch (const ShedError&) {
        // shed at shutdown: acceptable
      }
    }
    closer.join();
    stopper.join();
    // Submitting after the dust settled must shed, not crash.
    EXPECT_THROW((void)exec.submit_stream(sid, frames[0]).get(), std::exception)
        << "round " << round;
  }
}

TEST(ExecutorStreamTest, SubmitStreamRacingShutdownResolvesEveryFuture) {
  const CompiledNetwork compiled = make_compiled(91);
  const std::vector<Tensor> frames = make_frames(1, 92);

  for (int round = 0; round < 10; ++round) {
    BatchExecutor exec(compiled, 1);
    const uint64_t sid = exec.open_stream();
    std::vector<std::future<InferenceResult>> futures;
    std::thread submitter([&] {
      for (int i = 0; i < 4; ++i) futures.push_back(exec.submit_stream(sid, frames[0]));
    });
    std::thread stopper([&] { exec.shutdown(); });
    submitter.join();
    stopper.join();
    int resolved = 0;
    for (auto& f : futures) {
      try {
        (void)f.get();
        ++resolved;
      } catch (const ShedError&) {
        ++resolved;
      }
    }
    // The exactly-one-outcome invariant: every submitted step's future
    // resolves with a value or ShedError — none is dropped on the floor.
    EXPECT_EQ(resolved, 4) << "round " << round;
  }
}

}  // namespace
}  // namespace ndsnn::runtime
