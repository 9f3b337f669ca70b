// nn::Layer adapters for the PLIF and ALIF neuron variants, mirroring
// LifActivation. PlifActivation exposes its trainable leak as a
// (non-prunable) parameter so it trains with the rest of the network.
#pragma once

#include "nn/layer.hpp"
#include "snn/alif.hpp"
#include "snn/plif.hpp"

namespace ndsnn::nn {

/// Parametric-LIF spiking nonlinearity with a trainable membrane leak.
class PlifActivation final : public Layer {
 public:
  PlifActivation(snn::PlifConfig config, int64_t timesteps);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;
  [[nodiscard]] double last_spike_rate() const override { return plif_.last_spike_rate(); }

  [[nodiscard]] float alpha() const { return plif_.alpha(); }
  [[nodiscard]] const snn::PlifLayer& plif() const { return plif_; }

 private:
  snn::PlifLayer plif_;
  // Scalar leak parameter exposed through the Tensor-based ParamRef
  // interface; synced with the PlifLayer around each forward/backward.
  tensor::Tensor leak_param_;
  tensor::Tensor leak_grad_;
};

/// Adaptive-threshold LIF spiking nonlinearity.
class AlifActivation final : public Layer {
 public:
  AlifActivation(snn::AlifConfig config, int64_t timesteps) : alif_(config, timesteps) {}

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override { alif_.reset_state(); }
  [[nodiscard]] double last_spike_rate() const override { return alif_.last_spike_rate(); }

  [[nodiscard]] const snn::AlifLayer& alif() const { return alif_; }

 private:
  snn::AlifLayer alif_;
};

}  // namespace ndsnn::nn
