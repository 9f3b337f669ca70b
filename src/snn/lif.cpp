#include "snn/lif.hpp"

#include <atomic>
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

namespace {

/// Neurons per lane below which the LIF kernels run inline: a pool wakes
/// its lanes in ~20 us on a 4-vCPU Xeon, about what 16 K neurons take
/// over T = 2 frames on one core.
constexpr int64_t kLifGrain = 16 * 1024;

/// Eq. 1 over a time-major window: `current`, `vmt` and `spikes` hold
/// `timesteps` frames of `step` neurons. Writes v[t] - theta and o[t] for
/// every frame and returns the number of spikes.
int64_t lif_forward(const float* current, int64_t timesteps, int64_t step, float alpha,
                    float theta, float* vmt, float* spikes, util::ThreadPool* pool) {
  std::atomic<int64_t> fired{0};
  util::ThreadPool::for_ranges(pool, step, kLifGrain, [&](int64_t i0, int64_t i1) {
    const int64_t n = i1 - i0;
    int64_t count = 0;
    for (int64_t t = 0; t < timesteps; ++t) {
      float* vt = vmt + t * step + i0;
      float* ot = spikes + t * step + i0;
      lif_step(current + t * step + i0, t == 0 ? nullptr : vt - step,
               t == 0 ? nullptr : ot - step, vt, ot, n, alpha, theta);
      for (int64_t i = 0; i < n; ++i) count += ot[i] != 0.0F;
    }
    fired.fetch_add(count, std::memory_order_relaxed);
  });
  return fired.load(std::memory_order_relaxed);
}

/// The BPTT recursion of Eq. 2 over the same window: dL/dI into
/// `grad_current` from dL/do and the saved v - theta, frames in
/// descending t per neuron (eps[t+1] is read back from grad_current).
void lif_backward(const float* grad_spikes, const float* vmt, int64_t timesteps, int64_t step,
                  const LifConfig& config, float* grad_current, util::ThreadPool* pool) {
  const float alpha = config.alpha;
  const float theta = config.threshold;
  const bool with_reset = !config.detach_reset;
  const SurrogateKind kind = config.surrogate;
  // eps[t] = (delta[t] - theta*eps[t+1] [if reset attached]) * phi[t]
  //        + alpha * eps[t+1];     dL/dI[t] = eps[t], eps[T] = 0
  util::ThreadPool::for_ranges(pool, step, kLifGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t t = timesteps - 1; t >= 0; --t) {
      const float* dt = grad_spikes + t * step;
      const float* vt = vmt + t * step;
      float* gt = grad_current + t * step;
      const float* next = t + 1 < timesteps ? gt + step : nullptr;
      for (int64_t i = i0; i < i1; ++i) {
        const float eps_next = next != nullptr ? next[i] : 0.0F;
        const float phi = surrogate_grad(kind, vt[i]);
        float delta = dt[i];
        if (with_reset) delta -= theta * eps_next;
        gt[i] = delta * phi + alpha * eps_next;
      }
    }
  });
}

}  // namespace

void LifLayer::forward_into(const tensor::Tensor& current, tensor::Tensor& spikes,
                            util::ThreadPool* pool) {
  const int64_t total = current.numel();
  if (total % timesteps_ != 0) {
    throw std::invalid_argument("LifLayer::forward: numel " + std::to_string(total) +
                                " not divisible by T=" + std::to_string(timesteps_));
  }
  step_size_ = total / timesteps_;
  saved_vmt_.assign_shape(current.shape());
  spikes.assign_shape(current.shape());
  const int64_t fired = lif_forward(current.data(), timesteps_, step_size_, config_.alpha,
                                    config_.threshold, saved_vmt_.data(), spikes.data(), pool);
  last_spike_rate_ = static_cast<double>(fired) / static_cast<double>(total);
  has_saved_ = true;
}

void LifLayer::backward_into(const tensor::Tensor& grad_spikes, tensor::Tensor& grad_current,
                             util::ThreadPool* pool) {
  if (!has_saved_) {
    throw std::logic_error("LifLayer::backward called before forward");
  }
  if (grad_spikes.shape() != saved_vmt_.shape()) {
    throw std::invalid_argument("LifLayer::backward: grad shape " +
                                grad_spikes.shape().str() + " != forward shape " +
                                saved_vmt_.shape().str());
  }
  grad_current.assign_shape(grad_spikes.shape());
  lif_backward(grad_spikes.data(), saved_vmt_.data(), timesteps_, step_size_, config_,
               grad_current.data(), pool);
}

tensor::Tensor LifLayer::forward(const tensor::Tensor& current) {
  tensor::Tensor spikes;
  forward_into(current, spikes);
  return spikes;
}

tensor::Tensor LifLayer::backward(const tensor::Tensor& grad_spikes) {
  tensor::Tensor grad_current;
  backward_into(grad_spikes, grad_current);
  return grad_current;
}

void LifLayer::reset_state() {
  has_saved_ = false;
  step_size_ = 0;
}

}  // namespace ndsnn::snn
