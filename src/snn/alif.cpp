#include "snn/alif.hpp"

#include <stdexcept>
#include <vector>

namespace ndsnn::snn {

void AlifConfig::validate() const {
  if (!(alpha > 0.0F && alpha <= 1.0F)) {
    throw std::invalid_argument("AlifConfig: alpha must be in (0, 1]");
  }
  if (threshold <= 0.0F) throw std::invalid_argument("AlifConfig: threshold must be > 0");
  if (beta < 0.0F) throw std::invalid_argument("AlifConfig: beta must be >= 0");
  if (!(rho >= 0.0F && rho < 1.0F)) {
    throw std::invalid_argument("AlifConfig: rho must be in [0, 1)");
  }
}

AlifLayer::AlifLayer(AlifConfig config, int64_t timesteps)
    : config_(config), timesteps_(timesteps) {
  config_.validate();
  if (timesteps_ < 1) throw std::invalid_argument("AlifLayer: timesteps must be >= 1");
}

tensor::Tensor AlifLayer::forward(const tensor::Tensor& current) {
  const int64_t total = current.numel();
  if (total % timesteps_ != 0) {
    throw std::invalid_argument("AlifLayer::forward: numel not divisible by T");
  }
  step_size_ = total / timesteps_;
  saved_vmt_ = tensor::Tensor(current.shape());
  tensor::Tensor spikes(current.shape());

  const float* in = current.data();
  float* vmt = saved_vmt_.data();
  float* spk = spikes.data();

  std::vector<float> v(static_cast<std::size_t>(step_size_), 0.0F);
  std::vector<float> trace(static_cast<std::size_t>(step_size_), 0.0F);

  int64_t fired = 0;
  for (int64_t t = 0; t < timesteps_; ++t) {
    float* ot = spk + t * step_size_;
    alif_step(config_, in + t * step_size_, t == 0 ? nullptr : ot - step_size_, v.data(),
              trace.data(), vmt + t * step_size_, ot, step_size_);
    for (int64_t i = 0; i < step_size_; ++i) fired += ot[i] != 0.0F;
  }
  last_spike_rate_ = static_cast<double>(fired) / static_cast<double>(total);
  has_saved_ = true;
  return spikes;
}

tensor::Tensor AlifLayer::backward(const tensor::Tensor& grad_spikes) {
  if (!has_saved_) throw std::logic_error("AlifLayer::backward before forward");
  if (grad_spikes.shape() != saved_vmt_.shape()) {
    throw std::invalid_argument("AlifLayer::backward: grad shape mismatch");
  }
  tensor::Tensor grad_current(grad_spikes.shape());
  const float* gout = grad_spikes.data();
  const float* vmt = saved_vmt_.data();
  float* gin = grad_current.data();
  const float alpha = config_.alpha;

  // Membrane recursion only (adaptation trace detached):
  //   eps[t] = delta[t] * phi(v[t] - theta[t]) + alpha * eps[t+1]
  std::vector<float> eps_next(static_cast<std::size_t>(step_size_), 0.0F);
  for (int64_t t = timesteps_ - 1; t >= 0; --t) {
    const float* dt = gout + t * step_size_;
    const float* vt = vmt + t * step_size_;
    float* gt = gin + t * step_size_;
    for (int64_t i = 0; i < step_size_; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const float phi = surrogate_grad(config_.surrogate, vt[i]);
      const float eps = dt[i] * phi + alpha * eps_next[idx];
      gt[i] = eps;
      eps_next[idx] = eps;
    }
  }
  return grad_current;
}

void AlifLayer::reset_state() {
  saved_vmt_ = tensor::Tensor();
  has_saved_ = false;
}

}  // namespace ndsnn::snn
