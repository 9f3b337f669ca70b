// Spiking residual basic block (for ResNet-19, tdBN style).
//
//   main:     conv3x3(s) -> BN -> LIF -> conv3x3(1) -> BN
//   shortcut: identity, or conv1x1(s) -> BN when shape changes
//   output:   LIF(main + shortcut)
#pragma once

#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/layer.hpp"
#include "nn/neuron_activations.hpp"
#include "snn/lif.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {

class ResidualBlock final : public Layer {
 public:
  ResidualBlock(int64_t in_channels, int64_t out_channels, int64_t stride,
                const snn::LifConfig& lif, int64_t timesteps, tensor::Rng& rng);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;
  [[nodiscard]] double last_spike_rate() const override;

  // Sub-layer access for the inference-runtime compiler (nullptr where a
  // block uses the identity shortcut).
  [[nodiscard]] const Conv2d& conv1() const { return *conv1_; }
  [[nodiscard]] const BatchNorm2d& bn1() const { return *bn1_; }
  [[nodiscard]] const LifActivation& lif1() const { return *lif1_; }
  [[nodiscard]] const Conv2d& conv2() const { return *conv2_; }
  [[nodiscard]] const BatchNorm2d& bn2() const { return *bn2_; }
  [[nodiscard]] const Conv2d* shortcut_conv() const { return shortcut_conv_.get(); }
  [[nodiscard]] const BatchNorm2d* shortcut_bn() const { return shortcut_bn_.get(); }
  [[nodiscard]] const LifActivation& lif_out() const { return *lif_out_; }

 private:
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<LifActivation> lif1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> shortcut_conv_;     // null for identity shortcut
  std::unique_ptr<BatchNorm2d> shortcut_bn_;  // null for identity shortcut
  std::unique_ptr<LifActivation> lif_out_;
  // Activations and gradients inside the block, kept across steps.
  tensor::Tensor a_, b_, sum_;
};

}  // namespace ndsnn::nn
