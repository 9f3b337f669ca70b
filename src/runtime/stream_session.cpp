#include "runtime/stream_session.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "runtime/trace.hpp"
#include "util/metrics.hpp"

namespace ndsnn::runtime {

using tensor::Tensor;

namespace {

/// Registry references resolved once (lookups lock; hot path must not).
struct StreamMetrics {
  util::Counter& steps;
  util::Counter& delta_skips;

  static StreamMetrics& get() {
    static StreamMetrics m{
        util::MetricsRegistry::global().counter("stream.steps"),
        util::MetricsRegistry::global().counter("stream.delta_skips"),
    };
    return m;
  }
};

/// Every element of `t` is +0.0F: all of its bits are clear.
bool all_positive_zero(const Tensor& t) {
  const float* p = t.data();
  return std::all_of(p, p + t.numel(),
                     [](float v) { return std::bit_cast<uint32_t>(v) == 0U; });
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

}  // namespace

StreamSession::StreamSession(const CompiledNetwork& net) : plan_(&net.plan_ir()) {
  if (plan_->ops.empty()) {
    throw std::invalid_argument("StreamSession: plan has no ops");
  }
  stages_.reserve(plan_->ops.size());
  for (const auto& op : plan_->ops) {
    Stage stage;
    stage.op = op.get();
    stage.state = op->make_state();
    stages_.push_back(std::move(stage));
  }
}

Activation StreamSession::run_stage(Stage& stage, const Activation& input,
                                    int64_t* skips) {
  if (!stage.state && all_positive_zero(input.tensor)) {
    // Delta path: a stateless op on an all-+0.0 input always produces
    // the same output for a given shape — cache it the first time (by
    // actually running the op, so e.g. a bias lands in the cache
    // exactly as computed) and reuse it afterwards.
    if (stage.zero_cached && stage.zero_in_shape == input.tensor.shape()) {
      trace::ScopedSpan span("delta-skip", "stream");
      span.rows(input.tensor.dim(0));
      StreamMetrics::get().delta_skips.add(1);
      ++delta_skips_;
      ++*skips;
      return stage.zero_out;
    }
    Activation out = stage.op->step(input, nullptr);
    stage.zero_in_shape = input.tensor.shape();
    stage.zero_out = out;
    stage.zero_cached = true;
    return out;
  }
  return stage.op->step(input, stage.state.get());
}

InferenceResult StreamSession::step(const InferenceRequest& request) {
  if (request.batch.rank() < 2) {
    throw std::invalid_argument("StreamSession: expected a frame [N, ...], got " +
                                request.batch.shape().str());
  }
  const auto start = std::chrono::steady_clock::now();
  int64_t skips = 0;
  Activation x(request.batch);
  for (auto& stage : stages_) x = run_stage(stage, x, &skips);
  ++steps_;
  StreamMetrics::get().steps.add(1);
  InferenceResult result;
  result.logits = std::move(x.tensor);
  result.skipped_ops = skips;
  result.latency_ms = ms_since(start);
  return result;
}

InferenceResult StreamSession::step(const Tensor& frame) {
  return step(InferenceRequest{frame, SloClass::kStream});
}

void StreamSession::reset() {
  for (auto& stage : stages_) stage.state = stage.op->make_state();
  steps_ = 0;
}

}  // namespace ndsnn::runtime
