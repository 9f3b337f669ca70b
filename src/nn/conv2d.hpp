// 2-D convolution layer (cache-blocked patch GEMM) with manual backprop.
#pragma once

#include <algorithm>

#include "nn/layer.hpp"
#include "tensor/im2col.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {

/// Conv2d over time-flattened batches: input [M, C, H, W] -> output
/// [M, F, OH, OW], M = T*N. Weight [F, C, KH, KW] is `prunable`.
///
/// No [C*K*K, M*OH*OW] patch matrix exists. The forward and the weight
/// gradient run tensor::conv2d_gemm / conv2d_weight_grad, which stage
/// the patch columns of a cache-sized block of samples at a time, with
/// the whole-matrix GEMMs' bits. The layer saves only a copy of its
/// input, whose storage lives across steps (reset_state() keeps it), so
/// a training step at a steady batch shape allocates no input-sized
/// buffer for it. The input gradient is built one patch row of one sample
/// at a time from the weight's nonzeros (a sparse::Csr of Wᵀ, the layout
/// the runtime's event conv reads).
///
/// Over a pool, the forward splits
/// sample blocks, the weight gradient its entries and the input gradient
/// its samples; see conv_gemm.hpp. Each output keeps its serial chain.
///
/// Under a GradMask (see layer.hpp) the weight gradient is computed only
/// at the kept entries while masked_grad_pays(); otherwise the dense GEMM
/// runs and the method's masking zeroes the rest. Either way the masked
/// gradient is bitwise the same.
class Conv2d final : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel, int64_t stride,
         int64_t padding, tensor::Rng& rng, bool bias = false);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  /// dW (and db) only: skips the Wᵀ·gy walk and col2im of backward().
  void accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  /// Drops the saved forward but keeps the saved input's storage.
  void reset_state() override;
  [[nodiscard]] std::optional<MaskedLayerView> masked_view() const override;

  /// Whether the masked weight-gradient kernel beats the dense GEMM for a
  /// gradient mask that keeps `density` of the weights of a conv with
  /// `filters` filters: while the kept filters per patch row, counting at
  /// least 16 filters, average at most kMaskedGradMaxKeptFilters. The
  /// masked kernel's cost follows the kept (patch row, 4-filter group)
  /// pairs; the dense GEMM's cost per entry falls as filters grow.
  /// Measured with the AVX2 bodies: the masked kernel matched the dense
  /// one at 0.5 on LeNet-5's conv1 (6 filters), beat it at every density
  /// on conv2 (16 filters, 1.4-1.7x near 0.2), and with 32-256 filters
  /// lost at 0.3 and won at 0.03.
  [[nodiscard]] static bool masked_grad_pays(double density, int64_t filters) {
    return density * static_cast<double>(std::max<int64_t>(filters, 16)) <=
           kMaskedGradMaxKeptFilters;
  }
  static constexpr double kMaskedGradMaxKeptFilters = 8.0;

  [[nodiscard]] int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] int64_t kernel() const { return kernel_; }
  [[nodiscard]] int64_t stride() const { return stride_; }
  [[nodiscard]] int64_t padding() const { return padding_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }
  [[nodiscard]] tensor::Tensor& weight() { return weight_; }
  [[nodiscard]] const tensor::Tensor& weight() const { return weight_; }
  [[nodiscard]] const tensor::Tensor& bias() const { return bias_; }

 private:

  int64_t in_channels_, out_channels_, kernel_, stride_, padding_;
  bool has_bias_;
  tensor::Tensor weight_;       // [F, C, KH, KW]
  tensor::Tensor weight_grad_;
  tensor::Tensor bias_;         // [F]
  tensor::Tensor bias_grad_;
  tensor::Tensor saved_input_;  // [M, C, H, W], storage kept across steps
  bool has_saved_ = false;      // a forward is saved for backward
  GradMask grad_mask_;
};

}  // namespace ndsnn::nn
