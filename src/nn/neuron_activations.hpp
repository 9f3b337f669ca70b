// The spiking nonlinearities of the nn stack, one layer class per neuron
// model: LIF (Eqs. 1-2), PLIF (LIF with a trained leak) and ALIF (LIF
// with an adaptive threshold). Each keeps its config, the v - theta of
// its last forward (BPTT reads it) and its firing rate (for the cost
// model), and runs the snn kernels (snn/lif.hpp, snn/alif.hpp) into
// buffers kept across steps. Neurons are independent: over a pool, each
// lane takes a range of them and runs their frames in time order, so any
// lane count is bitwise the serial pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "snn/alif.hpp"
#include "snn/lif.hpp"

namespace ndsnn::nn {

/// LIF spiking nonlinearity: membrane dynamics + Heaviside firing with
/// surrogate-gradient BPTT.
class LifActivation final : public Layer {
 public:
  LifActivation(snn::LifConfig config, int64_t timesteps);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override { has_saved_ = false; }
  [[nodiscard]] double last_spike_rate() const override { return last_spike_rate_; }

  [[nodiscard]] const snn::LifConfig& config() const { return config_; }
  [[nodiscard]] int64_t timesteps() const { return timesteps_; }

 private:
  snn::LifConfig config_;
  int64_t timesteps_;
  tensor::Tensor saved_vmt_;  ///< v[t] - theta of the last forward
  bool has_saved_ = false;
  double last_spike_rate_ = 0.0;
};

/// Parametric-LIF spiking nonlinearity: a LIF whose leak alpha = sigmoid(a)
/// trains with the network through one (non-prunable) parameter "leak",
/// so it stays in (0, 1) under unconstrained SGD. BPTT additionally
/// accumulates
///     dL/da = sum_t eps[t] * v[t-1] * sigmoid'(a)
/// i.e. the gradient of the membrane recursion w.r.t. the leak. One leak
/// per layer (the common choice; per-channel is future work).
class PlifActivation final : public Layer {
 public:
  PlifActivation(snn::PlifConfig config, int64_t timesteps);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override { has_saved_ = false; }
  [[nodiscard]] double last_spike_rate() const override { return last_spike_rate_; }

  /// Current effective leak alpha = sigmoid(a).
  [[nodiscard]] float alpha() const;
  /// The LIF this layer runs as at its current leak.
  [[nodiscard]] snn::LifConfig lif_config() const;
  [[nodiscard]] int64_t timesteps() const { return timesteps_; }

 private:
  snn::PlifConfig config_;
  int64_t timesteps_;
  tensor::Tensor leak_;       ///< [1]: the raw leak a
  tensor::Tensor leak_grad_;  ///< [1]: dL/da
  tensor::Tensor saved_vmt_;  ///< v[t] - theta of the last forward
  bool has_saved_ = false;
  double last_spike_rate_ = 0.0;
};

/// Adaptive-threshold LIF spiking nonlinearity.
class AlifActivation final : public Layer {
 public:
  AlifActivation(snn::AlifConfig config, int64_t timesteps);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override { has_saved_ = false; }
  [[nodiscard]] double last_spike_rate() const override { return last_spike_rate_; }

  [[nodiscard]] const snn::AlifConfig& config() const { return config_; }
  [[nodiscard]] int64_t timesteps() const { return timesteps_; }

 private:
  snn::AlifConfig config_;
  int64_t timesteps_;
  tensor::Tensor saved_vmt_;  ///< v[t] - theta[t] of the last forward
  tensor::Tensor v_, trace_;  ///< per-neuron membrane and adaptation trace, [N]
  bool has_saved_ = false;
  double last_spike_rate_ = 0.0;
};

}  // namespace ndsnn::nn
