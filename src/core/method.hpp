// SparseTrainingMethod: the strategy interface every sparsification
// scheme implements (NDSNN, SET, RigL, LTH, ADMM, Dense).
//
// The Trainer calls, per optimizer iteration:
//   before_step(t)  -- after backward, before SGD: mask/penalize grads
//   after_step(t)   -- after SGD: topology updates, re-mask weights
// and per epoch:
//   on_epoch_begin(e) -- round-based methods (LTH, ADMM) act here.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "sparse/distribution.hpp"
#include "sparse/mask.hpp"
#include "tensor/random.hpp"

namespace ndsnn::core {

class SparseTrainingMethod {
 public:
  virtual ~SparseTrainingMethod() = default;
  SparseTrainingMethod() = default;
  SparseTrainingMethod(const SparseTrainingMethod&) = delete;
  SparseTrainingMethod& operator=(const SparseTrainingMethod&) = delete;

  /// Bind to the model's prunable parameters and build initial masks.
  /// Must be called exactly once before training.
  virtual void initialize(const std::vector<nn::ParamRef>& params, tensor::Rng& rng) = 0;

  virtual void before_step(int64_t iteration) = 0;
  virtual void after_step(int64_t iteration) = 0;
  virtual void on_epoch_begin(int64_t epoch) { (void)epoch; }

  /// Parameter-weighted sparsity over prunable weights right now.
  [[nodiscard]] virtual double overall_sparsity() const = 0;
  [[nodiscard]] virtual std::vector<double> layer_sparsities() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Shared implementation for mask-based methods: owns one Mask per
/// prunable parameter and provides drop/grow plumbing.
class MaskedMethodBase : public SparseTrainingMethod {
 public:
  void before_step(int64_t iteration) override;
  [[nodiscard]] double overall_sparsity() const override;
  [[nodiscard]] std::vector<double> layer_sparsities() const override;
  /// Mask of the `layer`-th prunable parameter (throws std::out_of_range).
  [[nodiscard]] const sparse::Mask& mask(std::size_t layer) const { return layers_.at(layer).mask; }

 protected:
  struct MaskedLayer {
    nn::ParamRef ref;
    sparse::Mask mask;
  };

  /// Extract prunable params, build ERK (or uniform) masks at
  /// `initial_sparsity`, randomize active sets, zero masked weights.
  void build_masks(const std::vector<nn::ParamRef>& params, double initial_sparsity,
                   bool use_erk, tensor::Rng& rng);

  /// Zero gradients of masked-out weights ("only update active weights").
  void mask_gradients();
  /// Zero weights of masked-out connections.
  void mask_weights();
  /// Tell each layer which weight-gradient entries the next step needs:
  /// only the active ones (the current masks), or all of them when
  /// `dense` (the step reads gradients before mask_gradients()). Called
  /// at the end of initialize() and after_step(); a method that never
  /// calls it leaves its layers computing dense gradients.
  void send_grad_masks(bool dense);

  [[nodiscard]] std::vector<MaskedLayer>& layers() { return layers_; }
  [[nodiscard]] const std::vector<MaskedLayer>& layers() const { return layers_; }
  [[nodiscard]] bool initialized() const { return !layers_.empty(); }

  /// Layer dims for distribution computations.
  [[nodiscard]] std::vector<sparse::LayerDims> layer_dims() const;

 private:
  std::vector<MaskedLayer> layers_;
};

/// Snapshot of dense gradients taken in before_step on update rounds, so
/// growth criteria can see gradients of inactive weights.
class GradSnapshot {
 public:
  void capture(const std::vector<nn::ParamRef>& refs);
  [[nodiscard]] const tensor::Tensor& grad(std::size_t layer) const;
  [[nodiscard]] bool valid() const { return !grads_.empty(); }
  void clear() { grads_.clear(); }

 private:
  std::vector<tensor::Tensor> grads_;
};

}  // namespace ndsnn::core
