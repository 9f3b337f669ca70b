// Adapter exposing snn::LifLayer through the nn::Layer interface.
#pragma once

#include "nn/layer.hpp"
#include "snn/lif.hpp"

namespace ndsnn::nn {

/// Spiking nonlinearity: LIF membrane dynamics + Heaviside firing with
/// surrogate-gradient BPTT. Reports its firing rate for the cost model.
class LifActivation final : public Layer {
 public:
  LifActivation(snn::LifConfig config, int64_t timesteps)
      : lif_(config, timesteps) {}

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override { lif_.reset_state(); }
  [[nodiscard]] double last_spike_rate() const override { return lif_.last_spike_rate(); }

  [[nodiscard]] const snn::LifLayer& lif() const { return lif_; }

 private:
  snn::LifLayer lif_;
};

}  // namespace ndsnn::nn
