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

void PlifConfig::validate() const {
  if (!(initial_alpha > 0.0F && initial_alpha < 1.0F)) {
    throw std::invalid_argument("PlifConfig: initial_alpha must be in (0, 1)");
  }
  if (threshold <= 0.0F) throw std::invalid_argument("PlifConfig: threshold must be > 0");
}

int64_t lif_forward(const float* current, int64_t timesteps, int64_t step, float alpha,
                    float theta, float* vmt, float* spikes, util::ThreadPool* pool) {
  std::atomic<int64_t> fired{0};
  util::ThreadPool::for_ranges(pool, step, kNeuronGrain, [&](int64_t i0, int64_t i1) {
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

void lif_backward(const float* grad_spikes, const float* vmt, int64_t timesteps, int64_t step,
                  const LifConfig& config, float* grad_current, util::ThreadPool* pool) {
  const float alpha = config.alpha;
  const float theta = config.threshold;
  const bool with_reset = !config.detach_reset;
  const SurrogateKind kind = config.surrogate;
  // eps[t] = (delta[t] - theta*eps[t+1] [if reset attached]) * phi[t]
  //        + alpha * eps[t+1];     dL/dI[t] = eps[t], eps[T] = 0
  util::ThreadPool::for_ranges(pool, step, kNeuronGrain, [&](int64_t i0, int64_t i1) {
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

}  // namespace ndsnn::snn
