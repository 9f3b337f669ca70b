// Leaky Integrate-and-Fire neuron kernels with exact BPTT (Eqs. 1-2).
//
// Forward dynamics per timestep t (Eq. 1):
//     v[t] = alpha * v[t-1] + I[t] - theta * o[t-1]      (1a)
//     o[t] = u(v[t] - theta)                             (1b)
// where I[t] is the synaptic current produced by the preceding weight layer
// (conv/linear), alpha in (0,1] is the leak, theta the firing threshold and
// the "- theta * o[t-1]" term is the reset-by-subtraction of the previous
// spike.
//
// Backward (BPTT with surrogate gradient, Eq. 2): with
//     delta[t] = dL/do[t]   (from the layer above)
//     eps[t]   = dL/dv[t]
// the exact recursion, including the reset path, is
//     eps[t] = (delta[t] - theta * eps[t+1] * [!detach_reset]) * phi[t]
//            + alpha * eps[t+1]
//     dL/dI[t] = eps[t]
// The paper's Eq. 2b omits the reset path (standard "detach reset" trick
// from SpikingJelly); `detach_reset` toggles it, default true to match.
//
// Data layout: activations are time-major [T*N, feat...], T frames of
// `step` neurons each.
//
// lif_step below is the one home of Eq. 1: the training layers
// (nn::LifActivation, nn::PlifActivation with its trained leak) run it
// through lif_forward, and the compiled plan's LifOp calls it from one
// loop, over a whole window's frames or over one streamed frame from its
// carry. lif_backward is the one home of Eq. 2, for LIF, PLIF and ALIF's
// membrane recursion.
#pragma once

#include <cstdint>

#include "snn/surrogate.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::snn {

/// Configuration of a LIF layer.
struct LifConfig {
  float alpha = 0.5F;            ///< membrane leak factor, (0, 1]
  float threshold = 1.0F;        ///< firing threshold theta
  bool detach_reset = true;      ///< drop the reset term in BPTT (paper Eq. 2b)
  SurrogateKind surrogate = SurrogateKind::kAtan;

  /// Throws std::invalid_argument when outside valid ranges.
  void validate() const;
};

/// Configuration of a Parametric LIF (PLIF) layer: LIF with a trainable
/// leak alpha = sigmoid(a) (Fang et al., "Incorporating Learnable Membrane
/// Time Constant...", the lineage of the paper's ref [18]).
struct PlifConfig {
  float initial_alpha = 0.5F;   ///< starting leak (mapped through logit)
  float threshold = 1.0F;
  bool detach_reset = true;
  SurrogateKind surrogate = SurrogateKind::kAtan;

  void validate() const;
};

/// One timestep of Eq. 1 over `n` neurons: reads the synaptic current
/// I[t] and the previous state (v[t-1] - theta, o[t-1]), writes
/// v[t] - theta to `vmt` and o[t] to `spikes`. At t == 0 both previous
/// pointers are null: zero membrane, no prior spike, so v[0] = I[0]. The
/// update is element-wise, so `vmt` may be `vmt_prev` and `spikes` may be
/// `spikes_prev` (in-place update of a rolling state).
inline void lif_step(const float* current, const float* vmt_prev, const float* spikes_prev,
                     float* vmt, float* spikes, int64_t n, float alpha, float theta) {
  if (vmt_prev == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      const float d = current[i] - theta;
      vmt[i] = d;
      spikes[i] = heaviside(d);
    }
    return;
  }
  for (int64_t i = 0; i < n; ++i) {
    // Recover v[t-1] = (v[t-1] - theta) + theta.
    const float v = alpha * (vmt_prev[i] + theta) + current[i] - theta * spikes_prev[i];
    vmt[i] = v - theta;
    spikes[i] = heaviside(v - theta);
  }
}

/// Neurons per lane below which the neuron kernels run inline: a pool
/// wakes its lanes in ~20 us on a 4-vCPU Xeon, about what 16 K neurons
/// take over T = 2 frames on one core.
constexpr int64_t kNeuronGrain = 16 * 1024;

/// Eq. 1 over a time-major window from rest: `current`, `vmt` and
/// `spikes` hold `timesteps` frames of `step` neurons. Writes v[t] - theta
/// and o[t] for every frame and returns the number of spikes. Over a
/// pool, each lane takes a range of neurons and runs their frames in
/// time order, so any lane count is bitwise the serial pass.
int64_t lif_forward(const float* current, int64_t timesteps, int64_t step, float alpha,
                    float theta, float* vmt, float* spikes, util::ThreadPool* pool);

/// The BPTT recursion of Eq. 2 over the same window: dL/dI into
/// `grad_current` (eps[t]) from dL/do and the saved v - theta, frames in
/// descending t per neuron, neurons split over the pool like
/// lif_forward.
void lif_backward(const float* grad_spikes, const float* vmt, int64_t timesteps, int64_t step,
                  const LifConfig& config, float* grad_current, util::ThreadPool* pool);

}  // namespace ndsnn::snn
