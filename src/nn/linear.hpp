// Fully connected layer y = x Wᵀ + b with manual backprop.
#pragma once

#include "nn/layer.hpp"
#include "tensor/random.hpp"

namespace ndsnn::nn {

/// Linear layer over time-flattened rows: input [M, in], output [M, out]
/// where M = T*N. The weight matrix is `prunable`.
///
/// At weight densities up to kSparseDxMaxDensity the input gradient
/// walks the weight's nonzeros, bitwise the dense GEMM it replaces. The
/// weight gradient is always dense (the layer takes no GradMask): the
/// dense kernel vectorizes 16 columns at a time, and at NDSNN's LeNet-5
/// fc1 densities (4-12%) nearly every block of 8 or 16 columns holds a
/// kept entry, so skipping blocks saves nothing.
///
/// Over a pool, the forward and the weight gradient split rows of their
/// outputs and the input gradient splits input features, each entry
/// keeping its serial chain. The saved input and the input-gradient
/// workspaces live across steps.
class Linear final : public Layer {
 public:
  /// Kaiming-initialized weights; zero bias. `bias` can be disabled.
  Linear(int64_t in_features, int64_t out_features, tensor::Rng& rng, bool bias = true);

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  void accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;
  [[nodiscard]] std::optional<MaskedLayerView> masked_view() const override;

  /// Denser weights take the dense input-gradient GEMM, which vectorizes
  /// over whole rows: on LeNet-5's fc1 the two tie near 0.17 density,
  /// and the walk is 1.45x faster at 0.12 and 2.7x at 0.04.
  static constexpr double kSparseDxMaxDensity = 0.2;

  [[nodiscard]] int64_t in_features() const { return in_features_; }
  [[nodiscard]] int64_t out_features() const { return out_features_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }
  [[nodiscard]] tensor::Tensor& weight() { return weight_; }
  [[nodiscard]] const tensor::Tensor& weight() const { return weight_; }
  [[nodiscard]] const tensor::Tensor& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool has_bias_;
  tensor::Tensor weight_;       // [out, in]
  tensor::Tensor weight_grad_;  // [out, in]
  tensor::Tensor bias_;         // [out]
  tensor::Tensor bias_grad_;    // [out]
  tensor::Tensor saved_input_;  // [M, in]
  bool has_saved_ = false;
  // Input-gradient workspaces kept across steps: gyᵀ and dxᵀ.
  std::vector<float> grad_t_;
  std::vector<float> dx_t_;
};

}  // namespace ndsnn::nn
