// Leaky Integrate-and-Fire neuron layer with exact BPTT (Eqs. 1-2).
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
// Data layout: activations are time-major [T*N, feat...]; the layer is
// given T at construction and slices internally.
//
// lif_step below is the one home of Eq. 1: LifLayer, PlifLayer (with its
// trained leak) and the compiled plan's LifOp all advance their membranes
// through it. LifOp calls it from one loop, over a whole window's frames
// or over one streamed frame from its carry.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/surrogate.hpp"
#include "tensor/tensor.hpp"
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

/// Stateful LIF layer operating on time-major batches.
///
/// Neurons are independent: over a pool, each lane takes a range of
/// them and runs their frames in time order (forward ascending, backward
/// descending), so any lane count is bitwise the serial pass.
///
/// forward() consumes the synaptic current for all T steps at once
/// ([T*N, d...]) and emits the spike train of identical shape; backward()
/// runs the reverse-time recursion and returns dL/dI.
class LifLayer {
 public:
  LifLayer(LifConfig config, int64_t timesteps);

  /// Spike train o from synaptic current I into `spikes` (not `current`).
  /// Stores per-step (v - theta) for the backward pass, in storage kept
  /// across batches.
  void forward_into(const tensor::Tensor& current, tensor::Tensor& spikes,
                    util::ThreadPool* pool = nullptr);

  /// dL/dI from dL/do into `grad_current` (not `grad_spikes`). Must follow
  /// a forward with the same shape.
  void backward_into(const tensor::Tensor& grad_spikes, tensor::Tensor& grad_current,
                     util::ThreadPool* pool = nullptr);

  /// forward_into() / backward_into() a fresh tensor, serially.
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& current);
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_spikes);

  /// Discard stored state (between batches); the storage is kept.
  void reset_state();

  [[nodiscard]] const LifConfig& config() const { return config_; }
  [[nodiscard]] int64_t timesteps() const { return timesteps_; }

  /// Fraction of ones in the last emitted spike train (for SpikeStats).
  [[nodiscard]] double last_spike_rate() const { return last_spike_rate_; }

 private:
  LifConfig config_;
  int64_t timesteps_;
  // Saved from forward, shaped [T*N, d...]:
  tensor::Tensor saved_vmt_;     ///< v[t] - theta per element
  int64_t step_size_ = 0;        ///< N * prod(d...) elements per timestep
  bool has_saved_ = false;
  double last_spike_rate_ = 0.0;
};

}  // namespace ndsnn::snn
