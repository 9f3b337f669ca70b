#include "snn/plif.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ndsnn::snn {

namespace {
float sigmoid(float x) { return 1.0F / (1.0F + std::exp(-x)); }
float logit(float p) { return std::log(p / (1.0F - p)); }
}  // namespace

void PlifConfig::validate() const {
  if (!(initial_alpha > 0.0F && initial_alpha < 1.0F)) {
    throw std::invalid_argument("PlifConfig: initial_alpha must be in (0, 1)");
  }
  if (threshold <= 0.0F) throw std::invalid_argument("PlifConfig: threshold must be > 0");
}

PlifLayer::PlifLayer(PlifConfig config, int64_t timesteps)
    : config_(config), timesteps_(timesteps) {
  config_.validate();
  if (timesteps_ < 1) throw std::invalid_argument("PlifLayer: timesteps must be >= 1");
  raw_leak_ = logit(config_.initial_alpha);
}

float PlifLayer::alpha() const { return sigmoid(raw_leak_); }

tensor::Tensor PlifLayer::forward(const tensor::Tensor& current) {
  const int64_t total = current.numel();
  if (total % timesteps_ != 0) {
    throw std::invalid_argument("PlifLayer::forward: numel not divisible by T");
  }
  step_size_ = total / timesteps_;
  saved_vmt_ = tensor::Tensor(current.shape());
  tensor::Tensor spikes(current.shape());

  const float* in = current.data();
  float* vmt = saved_vmt_.data();
  float* spk = spikes.data();
  const float a = alpha();

  int64_t fired = 0;
  for (int64_t t = 0; t < timesteps_; ++t) {
    float* vt = vmt + t * step_size_;
    float* ot = spk + t * step_size_;
    // At t == 0 this is LIF's v = I; the full-recurrence form
    // a*0 + I - theta*0 would give the same v - theta and spikes.
    lif_step(in + t * step_size_, t == 0 ? nullptr : vt - step_size_,
             t == 0 ? nullptr : ot - step_size_, vt, ot, step_size_, a, config_.threshold);
    for (int64_t i = 0; i < step_size_; ++i) fired += ot[i] != 0.0F;
  }
  last_spike_rate_ = static_cast<double>(fired) / static_cast<double>(total);
  has_saved_ = true;
  return spikes;
}

tensor::Tensor PlifLayer::backward(const tensor::Tensor& grad_spikes) {
  if (!has_saved_) throw std::logic_error("PlifLayer::backward before forward");
  if (grad_spikes.shape() != saved_vmt_.shape()) {
    throw std::invalid_argument("PlifLayer::backward: grad shape mismatch");
  }
  tensor::Tensor grad_current(grad_spikes.shape());
  const float* gout = grad_spikes.data();
  const float* vmt = saved_vmt_.data();
  float* gin = grad_current.data();
  const float a = alpha();
  const float theta = config_.threshold;
  const bool with_reset = !config_.detach_reset;
  const float dsig = a * (1.0F - a);  // d alpha / d raw

  double leak_acc = 0.0;
  std::vector<float> eps_next(static_cast<std::size_t>(step_size_), 0.0F);
  for (int64_t t = timesteps_ - 1; t >= 0; --t) {
    const float* dt = gout + t * step_size_;
    const float* vt = vmt + t * step_size_;
    float* gt = gin + t * step_size_;
    for (int64_t i = 0; i < step_size_; ++i) {
      const float phi = surrogate_grad(config_.surrogate, vt[i]);
      float delta = dt[i];
      if (with_reset) delta -= theta * eps_next[static_cast<std::size_t>(i)];
      const float eps = delta * phi + a * eps_next[static_cast<std::size_t>(i)];
      gt[i] = eps;
      // dv[t]/dalpha = v[t-1] = (v[t-1] - theta) + theta, 0 at t == 0;
      // chain through sigmoid.
      const float vp = t == 0 ? 0.0F : vt[i - step_size_] + theta;
      leak_acc += static_cast<double>(eps) * vp;
      eps_next[static_cast<std::size_t>(i)] = eps;
    }
  }
  raw_leak_grad_ += static_cast<float>(leak_acc) * dsig;
  return grad_current;
}

void PlifLayer::reset_state() {
  saved_vmt_ = tensor::Tensor();
  has_saved_ = false;
}

}  // namespace ndsnn::snn
