#include "snn/lif.hpp"

#include <stdexcept>

namespace ndsnn::snn {

void LifConfig::validate() const {
  if (!(alpha > 0.0F && alpha <= 1.0F)) {
    throw std::invalid_argument("LifConfig: alpha must be in (0, 1]");
  }
  if (threshold <= 0.0F) {
    throw std::invalid_argument("LifConfig: threshold must be > 0");
  }
}

LifLayer::LifLayer(LifConfig config, int64_t timesteps)
    : config_(config), timesteps_(timesteps) {
  config_.validate();
  if (timesteps_ < 1) throw std::invalid_argument("LifLayer: timesteps must be >= 1");
}

tensor::Tensor LifLayer::forward(const tensor::Tensor& current) {
  const int64_t total = current.numel();
  if (total % timesteps_ != 0) {
    throw std::invalid_argument("LifLayer::forward: numel " + std::to_string(total) +
                                " not divisible by T=" + std::to_string(timesteps_));
  }
  step_size_ = total / timesteps_;
  saved_vmt_ = tensor::Tensor(current.shape());
  saved_spikes_ = tensor::Tensor(current.shape());

  const float* in = current.data();
  float* vmt = saved_vmt_.data();
  float* spk = saved_spikes_.data();

  int64_t fired = 0;
  for (int64_t t = 0; t < timesteps_; ++t) {
    float* vt = vmt + t * step_size_;
    float* ot = spk + t * step_size_;
    lif_step(in + t * step_size_, t == 0 ? nullptr : vt - step_size_,
             t == 0 ? nullptr : ot - step_size_, vt, ot, step_size_, config_.alpha,
             config_.threshold);
    for (int64_t i = 0; i < step_size_; ++i) fired += ot[i] != 0.0F;
  }
  last_spike_rate_ = static_cast<double>(fired) / static_cast<double>(total);
  has_saved_ = true;
  return saved_spikes_;
}

tensor::Tensor LifLayer::backward(const tensor::Tensor& grad_spikes) {
  if (!has_saved_) {
    throw std::logic_error("LifLayer::backward called before forward");
  }
  if (grad_spikes.shape() != saved_vmt_.shape()) {
    throw std::invalid_argument("LifLayer::backward: grad shape " +
                                grad_spikes.shape().str() + " != forward shape " +
                                saved_vmt_.shape().str());
  }
  tensor::Tensor grad_current(grad_spikes.shape());
  const float* gout = grad_spikes.data();
  const float* vmt = saved_vmt_.data();
  float* gin = grad_current.data();
  const float alpha = config_.alpha;
  const float theta = config_.threshold;
  const bool with_reset = !config_.detach_reset;

  // eps[t] = (delta[t] - theta*eps[t+1] [if reset attached]) * phi[t]
  //        + alpha * eps[t+1];     dL/dI[t] = eps[t]
  std::vector<float> eps_next(static_cast<std::size_t>(step_size_), 0.0F);
  for (int64_t t = timesteps_ - 1; t >= 0; --t) {
    const float* dt = gout + t * step_size_;
    const float* vt = vmt + t * step_size_;
    float* gt = gin + t * step_size_;
    for (int64_t i = 0; i < step_size_; ++i) {
      const float phi = surrogate_grad(config_.surrogate, vt[i]);
      float delta = dt[i];
      if (with_reset) delta -= theta * eps_next[static_cast<std::size_t>(i)];
      const float eps = delta * phi + alpha * eps_next[static_cast<std::size_t>(i)];
      gt[i] = eps;
      eps_next[static_cast<std::size_t>(i)] = eps;
    }
  }
  return grad_current;
}

void LifLayer::reset_state() {
  saved_vmt_ = tensor::Tensor();
  saved_spikes_ = tensor::Tensor();
  has_saved_ = false;
  step_size_ = 0;
}

}  // namespace ndsnn::snn
