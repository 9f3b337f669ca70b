#include "nn/residual.hpp"

#include "tensor/ops.hpp"

namespace ndsnn::nn {

ResidualBlock::ResidualBlock(int64_t in_channels, int64_t out_channels, int64_t stride,
                             const snn::LifConfig& lif, int64_t timesteps,
                             tensor::Rng& rng) {
  conv1_ = std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1, rng);
  bn1_ = std::make_unique<BatchNorm2d>(out_channels);
  lif1_ = std::make_unique<LifActivation>(lif, timesteps);
  conv2_ = std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1, rng);
  bn2_ = std::make_unique<BatchNorm2d>(out_channels);
  if (stride != 1 || in_channels != out_channels) {
    shortcut_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
    shortcut_bn_ = std::make_unique<BatchNorm2d>(out_channels);
  }
  lif_out_ = std::make_unique<LifActivation>(lif, timesteps);
}

void ResidualBlock::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                                 util::ThreadPool* pool) {
  conv1_->forward_into(input, a_, training, pool);
  bn1_->forward_into(a_, b_, training, pool);
  lif1_->forward_into(b_, a_, training, pool);
  conv2_->forward_into(a_, b_, training, pool);
  bn2_->forward_into(b_, sum_, training, pool);
  if (shortcut_conv_) {
    shortcut_conv_->forward_into(input, a_, training, pool);
    shortcut_bn_->forward_into(a_, b_, training, pool);
    tensor::add_(sum_, b_);
  } else {
    tensor::add_(sum_, input);
  }
  lif_out_->forward_into(sum_, out, training, pool);
}

void ResidualBlock::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                                  util::ThreadPool* pool) {
  lif_out_->backward_into(grad_output, sum_, pool);

  // Main path.
  bn2_->backward_into(sum_, a_, pool);
  conv2_->backward_into(a_, b_, pool);
  lif1_->backward_into(b_, a_, pool);
  bn1_->backward_into(a_, b_, pool);
  conv1_->backward_into(b_, grad_input, pool);

  // Shortcut path.
  if (shortcut_conv_) {
    shortcut_bn_->backward_into(sum_, a_, pool);
    shortcut_conv_->backward_into(a_, b_, pool);
    tensor::add_(grad_input, b_);
  } else {
    tensor::add_(grad_input, sum_);
  }
}

std::vector<ParamRef> ResidualBlock::params() {
  std::vector<ParamRef> all;
  auto append = [&all](const char* prefix, Layer& layer) {
    for (auto& p : layer.params()) {
      p.name = std::string(prefix) + "." + p.name;
      all.push_back(p);
    }
  };
  append("conv1", *conv1_);
  append("bn1", *bn1_);
  append("conv2", *conv2_);
  append("bn2", *bn2_);
  if (shortcut_conv_) {
    append("shortcut_conv", *shortcut_conv_);
    append("shortcut_bn", *shortcut_bn_);
  }
  return all;
}

std::string ResidualBlock::name() const {
  return "ResidualBlock(" + std::to_string(conv1_->in_channels()) + "->" +
         std::to_string(conv1_->out_channels()) + ")";
}

void ResidualBlock::reset_state() {
  conv1_->reset_state();
  bn1_->reset_state();
  lif1_->reset_state();
  conv2_->reset_state();
  bn2_->reset_state();
  if (shortcut_conv_) {
    shortcut_conv_->reset_state();
    shortcut_bn_->reset_state();
  }
  lif_out_->reset_state();
}

double ResidualBlock::last_spike_rate() const {
  return 0.5 * (lif1_->last_spike_rate() + lif_out_->last_spike_rate());
}

}  // namespace ndsnn::nn
