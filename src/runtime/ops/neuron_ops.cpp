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

/// Elements per frame of `in` split into `frames` frames.
int64_t per_frame(const Tensor& in, int64_t frames, const char* op) {
  const int64_t total = in.numel();
  if (total % frames != 0) {
    throw std::invalid_argument(std::string(op) + ": numel " + std::to_string(total) +
                                " not divisible by T=" + std::to_string(frames));
  }
  return total / frames;
}

/// Carry of a LifOp: the rolling v - theta buffer and the previous
/// frame's spike train (within a window the op reads it back from the
/// previous output slice). `first` makes the first frame take lif_step's
/// null-state t == 0 path, as a window does.
struct LifCarry final : OpState {
  std::vector<float> vmt;
  std::vector<float> prev;
  bool first = true;
};

/// Carry of an AlifOp: the per-neuron recurrence buffers of a window,
/// zero-initialised exactly like a fresh one (a zero previous spike
/// train is bitwise the same as alif_step's null one).
struct AlifCarry final : OpState {
  std::vector<float> v;
  std::vector<float> trace;
  std::vector<float> prev;
};

/// `buf` as `n` floats of carried state: zero-filled the first time, and
/// a frame of any other size is refused after that.
float* carried(std::vector<float>& buf, int64_t n) {
  if (buf.empty()) buf.assign(static_cast<std::size_t>(n), 0.0F);
  if (!std::cmp_equal(buf.size(), n)) {
    throw std::invalid_argument(
        "neuron carry sized for " + std::to_string(buf.size()) + " elements, got a " +
        std::to_string(n) + "-element frame; call StreamSession::reset() before changing shape");
  }
  return buf.data();
}

}  // namespace

LifOp::LifOp(std::string layer_name, const snn::LifConfig& config, int64_t timesteps)
    : layer_name_(std::move(layer_name)),
      alpha_(config.alpha),
      theta_(config.threshold),
      timesteps_(timesteps) {}

void LifOp::run_into(const Activation& input, Activation& out, OpState* carry) const {
  auto* c = static_cast<LifCarry*>(carry);
  const Tensor& in_t = input.tensor;
  const int64_t frames = c != nullptr ? 1 : timesteps_;
  const int64_t n = per_frame(in_t, frames, "LifOp");
  trace::ScopedSpan span("lif-dynamics", "phase");
  span.rows(in_t.dim(0));
  float* vmt = c != nullptr ? carried(c->vmt, n) : state_scratch(0, n);  // v[t] - theta
  // o[t-1] of the first frame: none from rest.
  const float* prev = c != nullptr && !c->first ? carried(c->prev, n) : nullptr;
  const float* in = in_t.data();
  float* spk = out.reset(in_t.shape()).data();
  for (int64_t t = 0; t < frames; ++t) {
    float* ot = spk + t * n;
    snn::lif_step(in + t * n, prev != nullptr ? vmt : nullptr, prev, vmt, ot, n, alpha_,
                  theta_);
    prev = ot;
  }
  if (c != nullptr) {
    std::copy(spk, spk + n, carried(c->prev, n));
    c->first = false;
  }
  record_rate(out.tensor, span);
}

std::unique_ptr<OpState> LifOp::make_state() const { return std::make_unique<LifCarry>(); }

OpReport LifOp::report() const { return {layer_name_, "lif", 0, 0, 0.0, false}; }

AlifOp::AlifOp(std::string layer_name, const snn::AlifConfig& config, int64_t timesteps)
    : layer_name_(std::move(layer_name)), config_(config), timesteps_(timesteps) {}

void AlifOp::run_into(const Activation& input, Activation& out, OpState* carry) const {
  auto* c = static_cast<AlifCarry*>(carry);
  const Tensor& in_t = input.tensor;
  const int64_t frames = c != nullptr ? 1 : timesteps_;
  const int64_t n = per_frame(in_t, frames, "AlifOp");
  trace::ScopedSpan span("alif-dynamics", "phase");
  span.rows(in_t.dim(0));
  float* v = c != nullptr ? carried(c->v, n) : state_scratch(0, n);
  float* trace = c != nullptr ? carried(c->trace, n) : state_scratch(1, n);
  float* dist = state_scratch(2, n);
  const float* prev = c != nullptr ? carried(c->prev, n) : nullptr;
  const float* in = in_t.data();
  float* spk = out.reset(in_t.shape()).data();
  for (int64_t t = 0; t < frames; ++t) {
    float* ot = spk + t * n;
    snn::alif_step(config_, in + t * n, prev, v, trace, dist, ot, n);
    prev = ot;
  }
  if (c != nullptr) std::copy(spk, spk + n, c->prev.begin());
  record_rate(out.tensor, span);
}

std::unique_ptr<OpState> AlifOp::make_state() const { return std::make_unique<AlifCarry>(); }

OpReport AlifOp::report() const { return {layer_name_, "alif", 0, 0, 0.0, false}; }

}  // namespace ndsnn::runtime
