// Batch normalization over channels of time-flattened activations.
//
// SNN practice (tdBN, Zheng et al. 2021) normalizes jointly over the time
// and batch dimensions; since activations here are [T*N, C, H, W], plain
// per-channel BN over dim 0,2,3 implements exactly that.
#pragma once

#include "nn/layer.hpp"

namespace ndsnn::nn {

/// BatchNorm2d with affine parameters and running statistics.
/// gamma/beta are trainable but never pruned.
///
/// Channels are independent: the forward (statistics, running averages,
/// normalisation) and the backward (the two sums, dgamma, dbeta, dx) of a
/// channel run on one lane in the serial order, so splitting channels over
/// a pool is bitwise the serial pass. The normalised input is saved in
/// storage kept across steps.
class BatchNorm2d final : public Layer {
 public:
  explicit BatchNorm2d(int64_t channels, float eps = 1e-5F, float momentum = 0.1F);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;

  [[nodiscard]] int64_t channels() const { return channels_; }
  [[nodiscard]] float eps() const { return eps_; }
  [[nodiscard]] const tensor::Tensor& gamma() const { return gamma_; }
  [[nodiscard]] const tensor::Tensor& beta() const { return beta_; }
  [[nodiscard]] const tensor::Tensor& running_mean() const { return running_mean_; }
  [[nodiscard]] const tensor::Tensor& running_var() const { return running_var_; }

 private:
  int64_t channels_;
  float eps_;
  float momentum_;
  tensor::Tensor gamma_, gamma_grad_;
  tensor::Tensor beta_, beta_grad_;
  tensor::Tensor running_mean_, running_var_;
  // Saved for backward:
  tensor::Tensor saved_xhat_;       // normalized input
  std::vector<float> saved_inv_std_;
  tensor::Shape saved_in_shape_;
  bool has_saved_ = false;
};

}  // namespace ndsnn::nn
