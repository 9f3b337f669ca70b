#include "runtime/ops/neuron_ops.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/trace.hpp"
#include "snn/surrogate.hpp"

namespace ndsnn::runtime {

using tensor::Tensor;

LifOp::LifOp(std::string layer_name, const snn::LifConfig& config, int64_t timesteps,
             bool emit_events)
    : layer_name_(std::move(layer_name)),
      alpha_(config.alpha),
      theta_(config.threshold),
      timesteps_(timesteps),
      emit_events_(emit_events) {}

Activation LifOp::run(const Activation& input) const {
  const Tensor& in_t = input.tensor;
  const int64_t total = in_t.numel();
  if (total % timesteps_ != 0) {
    throw std::invalid_argument("LifOp: numel " + std::to_string(total) +
                                " not divisible by T=" + std::to_string(timesteps_));
  }
  const int64_t step = total / timesteps_;
  const int64_t rows = in_t.dim(0);
  trace::ScopedSpan span("lif-dynamics", "phase");
  span.rows(rows);
  Tensor out(in_t.shape());
  SpikeBatchBuilder builder(rows, rows > 0 ? total / rows : 0);
  std::vector<float> vmt(static_cast<std::size_t>(step), 0.0F);  // v[t] - theta
  const float* in = in_t.data();
  float* spk = out.data();
  for (int64_t t = 0; t < timesteps_; ++t) {
    const float* it = in + t * step;
    float* ot = spk + t * step;
    if (t == 0) {
      for (int64_t i = 0; i < step; ++i) {
        const float v = it[i];
        vmt[static_cast<std::size_t>(i)] = v - theta_;
        ot[i] = snn::heaviside(v - theta_);
        if (emit_events_ && ot[i] != 0.0F) builder.push(t * step + i);
      }
    } else {
      const float* oprev = spk + (t - 1) * step;
      for (int64_t i = 0; i < step; ++i) {
        const float v =
            alpha_ * (vmt[static_cast<std::size_t>(i)] + theta_) + it[i] - theta_ * oprev[i];
        vmt[static_cast<std::size_t>(i)] = v - theta_;
        ot[i] = snn::heaviside(v - theta_);
        if (emit_events_ && ot[i] != 0.0F) builder.push(t * step + i);
      }
    }
  }
  if (!emit_events_) return Activation(std::move(out));
  Activation result(std::move(out), builder.finish());
  span.rate(result.events.rate());  // observed firing rate, free from the view
  return result;
}

namespace {

/// Streaming carry of a LifOp: run()'s vmt buffer plus the previous
/// step's spike train (run() reads it back out of the output tensor;
/// across calls it has to be kept explicitly). `first` replays the
/// t==0 branch — run() computes the first step as `v = it[i]` with no
/// decay term, and matching it bitwise means taking the same branch,
/// not simulating it with pre-seeded state.
struct LifStreamState final : OpState {
  std::vector<float> vmt;   // v[t] - theta per neuron
  std::vector<float> prev;  // previous step's spikes
  bool first = true;
};

/// Streaming carry of an AlifOp: the three per-neuron recurrence
/// buffers of run(), zero-initialised exactly like a fresh window.
struct AlifStreamState final : OpState {
  std::vector<float> v;
  std::vector<float> trace;
  std::vector<float> prev_spike;
};

void ensure_stream_size(std::vector<float>& buf, int64_t step) {
  if (std::cmp_equal(buf.size(), step)) return;
  if (!buf.empty()) {
    throw std::invalid_argument(
        "neuron stream state sized for " + std::to_string(buf.size()) +
        " elements, got a " + std::to_string(step) +
        "-element frame; call StreamSession::reset() before changing shape");
  }
  buf.assign(static_cast<std::size_t>(step), 0.0F);
}

}  // namespace

std::unique_ptr<OpState> LifOp::make_state() const {
  return std::make_unique<LifStreamState>();
}

Activation LifOp::step(const Activation& input, OpState* state) const {
  auto* st = static_cast<LifStreamState*>(state);
  const Tensor& in_t = input.tensor;
  const int64_t step = in_t.numel();
  const int64_t rows = in_t.dim(0);
  ensure_stream_size(st->vmt, step);
  ensure_stream_size(st->prev, step);
  trace::ScopedSpan span("lif-dynamics", "phase");
  span.rows(rows);
  Tensor out(in_t.shape());
  SpikeBatchBuilder builder(rows, rows > 0 ? step / rows : 0);
  const float* it = in_t.data();
  float* ot = out.data();
  if (st->first) {
    st->first = false;
    for (int64_t i = 0; i < step; ++i) {
      const float v = it[i];
      st->vmt[static_cast<std::size_t>(i)] = v - theta_;
      ot[i] = snn::heaviside(v - theta_);
      if (emit_events_ && ot[i] != 0.0F) builder.push(i);
    }
  } else {
    for (int64_t i = 0; i < step; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const float v = alpha_ * (st->vmt[idx] + theta_) + it[i] - theta_ * st->prev[idx];
      st->vmt[idx] = v - theta_;
      ot[i] = snn::heaviside(v - theta_);
      if (emit_events_ && ot[i] != 0.0F) builder.push(i);
    }
  }
  std::copy(ot, ot + step, st->prev.begin());
  if (!emit_events_) return Activation(std::move(out));
  Activation result(std::move(out), builder.finish());
  span.rate(result.events.rate());
  return result;
}

OpReport LifOp::report() const { return {layer_name_, "lif", 0, 0, 0.0, false}; }

AlifOp::AlifOp(std::string layer_name, const snn::AlifConfig& config, int64_t timesteps,
               bool emit_events)
    : layer_name_(std::move(layer_name)),
      config_(config),
      timesteps_(timesteps),
      emit_events_(emit_events) {}

Activation AlifOp::run(const Activation& input) const {
  const Tensor& in_t = input.tensor;
  const int64_t total = in_t.numel();
  if (total % timesteps_ != 0) {
    throw std::invalid_argument("AlifOp: numel not divisible by T");
  }
  const int64_t step = total / timesteps_;
  const int64_t rows = in_t.dim(0);
  trace::ScopedSpan span("alif-dynamics", "phase");
  span.rows(rows);
  Tensor out(in_t.shape());
  SpikeBatchBuilder builder(rows, rows > 0 ? total / rows : 0);
  std::vector<float> v(static_cast<std::size_t>(step), 0.0F);
  std::vector<float> trace(static_cast<std::size_t>(step), 0.0F);
  std::vector<float> prev_spike(static_cast<std::size_t>(step), 0.0F);
  const float* in = in_t.data();
  float* spk = out.data();
  for (int64_t t = 0; t < timesteps_; ++t) {
    const float* it = in + t * step;
    float* ot = spk + t * step;
    for (int64_t i = 0; i < step; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      trace[idx] = config_.rho * trace[idx] + prev_spike[idx];
      const float theta_t = config_.threshold + config_.beta * trace[idx];
      v[idx] = config_.alpha * v[idx] + it[i] - theta_t * prev_spike[idx];
      ot[i] = snn::heaviside(v[idx] - theta_t);
      prev_spike[idx] = ot[i];
      if (emit_events_ && ot[i] != 0.0F) builder.push(t * step + i);
    }
  }
  if (!emit_events_) return Activation(std::move(out));
  Activation result(std::move(out), builder.finish());
  span.rate(result.events.rate());
  return result;
}

std::unique_ptr<OpState> AlifOp::make_state() const {
  return std::make_unique<AlifStreamState>();
}

Activation AlifOp::step(const Activation& input, OpState* state) const {
  auto* st = static_cast<AlifStreamState*>(state);
  const Tensor& in_t = input.tensor;
  const int64_t step = in_t.numel();
  const int64_t rows = in_t.dim(0);
  ensure_stream_size(st->v, step);
  ensure_stream_size(st->trace, step);
  ensure_stream_size(st->prev_spike, step);
  trace::ScopedSpan span("alif-dynamics", "phase");
  span.rows(rows);
  Tensor out(in_t.shape());
  SpikeBatchBuilder builder(rows, rows > 0 ? step / rows : 0);
  const float* it = in_t.data();
  float* ot = out.data();
  for (int64_t i = 0; i < step; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    st->trace[idx] = config_.rho * st->trace[idx] + st->prev_spike[idx];
    const float theta_t = config_.threshold + config_.beta * st->trace[idx];
    st->v[idx] = config_.alpha * st->v[idx] + it[i] - theta_t * st->prev_spike[idx];
    ot[i] = snn::heaviside(st->v[idx] - theta_t);
    st->prev_spike[idx] = ot[i];
    if (emit_events_ && ot[i] != 0.0F) builder.push(i);
  }
  if (!emit_events_) return Activation(std::move(out));
  Activation result(std::move(out), builder.finish());
  span.rate(result.events.rate());
  return result;
}

OpReport AlifOp::report() const { return {layer_name_, "alif", 0, 0, 0.0, false}; }

}  // namespace ndsnn::runtime
