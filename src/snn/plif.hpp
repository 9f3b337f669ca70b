// Parametric LIF (PLIF): LIF with a *trainable* membrane leak, from
// Fang et al., "Incorporating Learnable Membrane Time Constant..."
// (the lineage of the paper's ref [18]).
//
// The leak is parameterized as alpha = sigmoid(a) so it stays in (0, 1)
// under unconstrained SGD. BPTT additionally accumulates
//     dL/da = sum_t eps[t] * v[t-1] * sigmoid'(a)
// i.e. the gradient of the membrane recursion w.r.t. the leak.
#pragma once

#include "snn/lif.hpp"
#include "tensor/tensor.hpp"

namespace ndsnn::snn {

struct PlifConfig {
  float initial_alpha = 0.5F;   ///< starting leak (mapped through logit)
  float threshold = 1.0F;
  bool detach_reset = true;
  SurrogateKind surrogate = SurrogateKind::kAtan;

  void validate() const;
};

/// PLIF layer over time-major activations [T*N, d...]; one shared leak
/// parameter per layer (the common choice; per-channel is future work).
class PlifLayer {
 public:
  PlifLayer(PlifConfig config, int64_t timesteps);

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& current);
  /// Returns dL/dI and accumulates the leak gradient (see leak_grad()).
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_spikes);

  void reset_state();

  /// Current effective leak alpha = sigmoid(a).
  [[nodiscard]] float alpha() const;
  /// Raw parameter a and its accumulated gradient (for the optimizer).
  [[nodiscard]] float& raw_leak() { return raw_leak_; }
  [[nodiscard]] float& raw_leak_grad() { return raw_leak_grad_; }

  [[nodiscard]] const PlifConfig& config() const { return config_; }
  [[nodiscard]] int64_t timesteps() const { return timesteps_; }
  [[nodiscard]] double last_spike_rate() const { return last_spike_rate_; }

 private:
  PlifConfig config_;
  int64_t timesteps_;
  float raw_leak_ = 0.0F;       // a with alpha = sigmoid(a)
  float raw_leak_grad_ = 0.0F;
  tensor::Tensor saved_vmt_;    // v[t] - theta
  int64_t step_size_ = 0;
  bool has_saved_ = false;
  double last_spike_rate_ = 0.0;
};

}  // namespace ndsnn::snn
