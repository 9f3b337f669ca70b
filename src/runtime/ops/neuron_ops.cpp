#include "runtime/ops/neuron_ops.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/trace.hpp"

namespace ndsnn::runtime {

using tensor::Tensor;

namespace {

/// Records the firing rate of the spike train `spikes` on `span`, only
/// while tracing.
void record_rate(const Tensor& spikes, trace::ScopedSpan& span) {
  if (span.active()) span.rate(trace::nonzero_fraction(spikes));
}

/// `n` zero-filled floats of neuron state: slot `slot` (0-2) of the
/// calling thread's run_into() scratch, kept from call to call (pool
/// lanes are threads, so no two lanes share it).
float* state_scratch(int slot, int64_t n) {
  thread_local std::vector<float> buffers[3];
  std::vector<float>& b = buffers[slot];
  b.assign(static_cast<std::size_t>(n), 0.0F);
  return b.data();
}

int64_t per_step(const Tensor& in, int64_t timesteps, const char* op) {
  const int64_t total = in.numel();
  if (total % timesteps != 0) {
    throw std::invalid_argument(std::string(op) + ": numel " + std::to_string(total) +
                                " not divisible by T=" + std::to_string(timesteps));
  }
  return total / timesteps;
}

/// Streaming carry of a LifOp: run()'s rolling v - theta buffer plus
/// the previous step's spike train (run() reads it back out of the
/// output tensor; across calls it has to be kept explicitly). `first`
/// makes the first step take lif_step's null-state t == 0 path, as
/// run() does.
struct LifStreamState final : OpState {
  std::vector<float> vmt;   // v[t] - theta per neuron
  std::vector<float> prev;  // previous step's spikes
  bool first = true;
};

/// Streaming carry of an AlifOp: the per-neuron recurrence buffers of
/// run(), zero-initialised exactly like a fresh window (a zero previous
/// spike train is bitwise the same as alif_step's null one).
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

LifOp::LifOp(std::string layer_name, const snn::LifConfig& config, int64_t timesteps)
    : layer_name_(std::move(layer_name)),
      alpha_(config.alpha),
      theta_(config.threshold),
      timesteps_(timesteps) {}

void LifOp::run_into(const Activation& input, Activation& out) const {
  const Tensor& in_t = input.tensor;
  const int64_t step = per_step(in_t, timesteps_, "LifOp");
  trace::ScopedSpan span("lif-dynamics", "phase");
  span.rows(in_t.dim(0));
  float* vmt = state_scratch(0, step);  // v[t] - theta, rolling
  const float* in = in_t.data();
  float* spk = out.reset(in_t.shape()).data();
  snn::lif_step(in, nullptr, nullptr, vmt, spk, step, alpha_, theta_);
  for (int64_t t = 1; t < timesteps_; ++t) {
    float* ot = spk + t * step;
    snn::lif_step(in + t * step, vmt, ot - step, vmt, ot, step, alpha_, theta_);
  }
  record_rate(out.tensor, span);
}

std::unique_ptr<OpState> LifOp::make_state() const {
  return std::make_unique<LifStreamState>();
}

Activation LifOp::step(const Activation& input, OpState* state) const {
  auto* st = static_cast<LifStreamState*>(state);
  const Tensor& in_t = input.tensor;
  const int64_t step = in_t.numel();
  ensure_stream_size(st->vmt, step);
  ensure_stream_size(st->prev, step);
  trace::ScopedSpan span("lif-dynamics", "phase");
  span.rows(in_t.dim(0));
  float* vmt = st->vmt.data();
  float* prev = st->prev.data();
  snn::lif_step(in_t.data(), st->first ? nullptr : vmt, st->first ? nullptr : prev, vmt, prev,
                step, alpha_, theta_);
  st->first = false;
  Tensor out(in_t.shape());
  std::copy(st->prev.begin(), st->prev.end(), out.data());
  record_rate(out, span);
  return Activation(std::move(out));
}

OpReport LifOp::report() const { return {layer_name_, "lif", 0, 0, 0.0, false}; }

AlifOp::AlifOp(std::string layer_name, const snn::AlifConfig& config, int64_t timesteps)
    : layer_name_(std::move(layer_name)), config_(config), timesteps_(timesteps) {}

void AlifOp::run_into(const Activation& input, Activation& out) const {
  const Tensor& in_t = input.tensor;
  const int64_t step = per_step(in_t, timesteps_, "AlifOp");
  trace::ScopedSpan span("alif-dynamics", "phase");
  span.rows(in_t.dim(0));
  float* v = state_scratch(0, step);
  float* trace = state_scratch(1, step);
  float* dist = state_scratch(2, step);
  const float* in = in_t.data();
  float* spk = out.reset(in_t.shape()).data();
  for (int64_t t = 0; t < timesteps_; ++t) {
    float* ot = spk + t * step;
    snn::alif_step(config_, in + t * step, t == 0 ? nullptr : ot - step, v, trace, dist, ot,
                   step);
  }
  record_rate(out.tensor, span);
}

std::unique_ptr<OpState> AlifOp::make_state() const {
  return std::make_unique<AlifStreamState>();
}

Activation AlifOp::step(const Activation& input, OpState* state) const {
  auto* st = static_cast<AlifStreamState*>(state);
  const Tensor& in_t = input.tensor;
  const int64_t step = in_t.numel();
  ensure_stream_size(st->v, step);
  ensure_stream_size(st->trace, step);
  ensure_stream_size(st->prev_spike, step);
  trace::ScopedSpan span("alif-dynamics", "phase");
  span.rows(in_t.dim(0));
  std::vector<float> dist(static_cast<std::size_t>(step));
  float* prev = st->prev_spike.data();
  snn::alif_step(config_, in_t.data(), prev, st->v.data(), st->trace.data(), dist.data(), prev,
                 step);
  Tensor out(in_t.shape());
  std::copy(st->prev_spike.begin(), st->prev_spike.end(), out.data());
  record_rate(out, span);
  return Activation(std::move(out));
}

OpReport AlifOp::report() const { return {layer_name_, "alif", 0, 0, 0.0, false}; }

}  // namespace ndsnn::runtime
