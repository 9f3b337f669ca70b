// Adaptive LIF (ALIF): LIF with spike-frequency adaptation via a moving
// threshold (Bellec et al., "Long short-term memory in networks of
// spiking neurons"). Each spike raises the effective threshold:
//
//     a[t]     = rho * a[t-1] + o[t-1]
//     theta[t] = theta0 + beta * a[t]
//     v[t]     = alpha * v[t-1] + I[t] - theta[t] * o[t-1]
//     o[t]     = u(v[t] - theta[t])
//
// BPTT treats the adaptation trace as detached (standard practice: the
// threshold path's gradient is small and noisy); the membrane recursion
// gradient is exact, with phi evaluated at v[t] - theta[t]. That is LIF's
// recursion with the reset path detached, so nn::AlifActivation runs
// snn::lif_backward on its saved v[t] - theta[t].
//
// alif_step below is the one home of this update: nn::AlifActivation and
// the compiled plan's AlifOp both call it, AlifOp from one loop over a
// whole window's frames or over one streamed frame from its carry.
#pragma once

#include <cstdint>

#include "snn/surrogate.hpp"

namespace ndsnn::snn {

struct AlifConfig {
  float alpha = 0.5F;       ///< membrane leak
  float threshold = 1.0F;   ///< baseline threshold theta0
  float beta = 0.2F;        ///< adaptation strength
  float rho = 0.9F;         ///< adaptation trace decay
  SurrogateKind surrogate = SurrogateKind::kAtan;

  void validate() const;
};

/// One timestep of the ALIF update over `n` neurons. `v` and `trace`
/// hold v[t-1] and a[t-1] on entry (zeros at t == 0) and are updated in
/// place to v[t] and a[t]; `spikes_prev` is o[t-1], or null at t == 0
/// (no prior spike). Writes v[t] - theta[t] to `dist` and o[t] to
/// `spikes`; `spikes` may be `spikes_prev`.
inline void alif_step(const AlifConfig& c, const float* current, const float* spikes_prev,
                      float* v, float* trace, float* dist, float* spikes, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float o_prev = spikes_prev == nullptr ? 0.0F : spikes_prev[i];
    trace[i] = c.rho * trace[i] + o_prev;
    const float theta_t = c.threshold + c.beta * trace[i];
    v[i] = c.alpha * v[i] + current[i] - theta_t * o_prev;
    dist[i] = v[i] - theta_t;
    spikes[i] = heaviside(dist[i]);
  }
}

}  // namespace ndsnn::snn
