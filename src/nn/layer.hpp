// Layer: the base abstraction of the manual-backprop NN stack.
//
// Every layer transforms a time-major activation tensor [T*N, d...] in
// forward() and propagates gradients in backward() (reverse order of the
// forward calls); accumulate_grads() is backward() without the input
// gradient, for the first layer of a network. Parameters are exposed
// through ParamRef views so the optimizer and the sparse-training methods
// can iterate over them without knowing layer internals.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"

namespace ndsnn::nn {

/// Which weight-gradient entries the next backward must produce. A
/// sparse-training method that zeroes the gradients of pruned weights
/// anyway sends its mask before each step it will do that on, and sends
/// "all" before any step that reads dense gradients (growth by gradient
/// magnitude). The layer keeps its own copy of the bits. While a mask is
/// set, the layer computes only the entries whose bit is 1 and leaves the
/// others as they were (zero after zero_grads), so its gradient equals
/// the dense gradient with the pruned entries zeroed, bit for bit.
class GradMask {
 public:
  /// Compute only the entries whose bit is nonzero (copied).
  void keep_only(const std::vector<uint8_t>& bits);
  /// Compute every entry (the default).
  void keep_all() { on_ = false; }
  /// The kept bits, or nullptr when every entry is computed.
  [[nodiscard]] const uint8_t* bits() const { return on_ ? bits_.data() : nullptr; }
  /// Number of bits set by the last keep_only().
  [[nodiscard]] int64_t size() const { return static_cast<int64_t>(bits_.size()); }
  /// Fraction of kept entries (1 when every entry is computed).
  [[nodiscard]] double density() const { return on_ ? density_ : 1.0; }

 private:
  std::vector<uint8_t> bits_;
  double density_ = 1.0;
  bool on_ = false;
};

/// Non-owning view of one parameter tensor and its gradient.
///
/// `prunable` marks weights that participate in sparse training (conv and
/// linear weight matrices); biases and BatchNorm affine parameters are
/// never pruned, matching the paper's setup.
struct ParamRef {
  std::string name;
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
  bool prunable = false;
  /// The owning layer's gradient mask, for layers whose backward can
  /// skip pruned weight-gradient entries; nullptr otherwise.
  GradMask* grad_mask = nullptr;
};

/// Uniform view of a layer's maskable weight tensor and optional bias,
/// so the inference-runtime compiler can measure sparsity and extract
/// weights without per-layer-type plumbing (conv weights lower to their
/// 2-D GEMM form via sparse::Csr::from_weights).
struct MaskedLayerView {
  const tensor::Tensor* weight = nullptr;  ///< dense weight tensor (any rank)
  const tensor::Tensor* bias = nullptr;    ///< nullptr when the layer has no bias

  /// Fraction of exactly-zero weight entries (mask-pruned weights are
  /// zeroed in place by the training methods).
  [[nodiscard]] double sparsity() const;
};

/// Abstract layer with manual forward/backward.
///
/// A layer writes its outputs into a tensor the caller hands it
/// (Tensor::assign_shape / assign_zeros reuse its storage), so a caller
/// that keeps its buffers across steps (Sequential does) allocates nothing
/// per step. Whatever a layer saves for backward it keeps in its own
/// storage, never by reference to its input or output.
///
/// Every pass takes the pool its kernels split their outputs over (null:
/// inline). A lane takes a range of outputs and runs each one's whole
/// accumulation in the serial order, so the results are bitwise the same
/// for any pool. SpikingNetwork trains on util::ThreadPool::shared() and
/// runs predict/eval_step inline.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Compute outputs into `out`, which must not be `input`; `training`
  /// toggles behaviours like BN statistics.
  virtual void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                            util::ThreadPool* pool) = 0;

  /// Propagate dL/d(output) to dL/d(input) into `grad_input` (not
  /// `grad_output`), accumulating parameter grads.
  virtual void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                             util::ThreadPool* pool) = 0;

  /// Accumulate parameter grads only, for a layer whose input gradient
  /// nobody reads (the first layer of a network). The grads are bitwise
  /// those backward_into() accumulates; layers override this to skip the
  /// input-gradient work.
  virtual void accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) {
    tensor::Tensor unused;
    backward_into(grad_output, unused, pool);
  }

  /// forward_into() a fresh tensor, inline.
  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input, bool training) {
    tensor::Tensor out;
    forward_into(input, out, training, nullptr);
    return out;
  }

  /// backward_into() a fresh tensor, inline.
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output) {
    tensor::Tensor grad_input;
    backward_into(grad_output, grad_input, nullptr);
    return grad_input;
  }

  /// Parameter views (empty for stateless layers).
  [[nodiscard]] virtual std::vector<ParamRef> params() { return {}; }

  /// Layer type name for logging / model summaries.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Clear temporal state and saved activations (between batches). A
  /// layer may keep the capacity of its workspaces, so the next batch of
  /// the same shape allocates nothing; no value of a previous batch is
  /// read again.
  virtual void reset_state() {}

  /// Firing fraction of the last forward if this layer spikes, else < 0.
  [[nodiscard]] virtual double last_spike_rate() const { return -1.0; }

  /// View of this layer's prunable weight matrix, or nullopt for layers
  /// without one (activations, pooling, normalization, containers).
  [[nodiscard]] virtual std::optional<MaskedLayerView> masked_view() const {
    return std::nullopt;
  }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Zero all parameter gradients reachable from `layers`.
void zero_grads(const std::vector<ParamRef>& params);

}  // namespace ndsnn::nn
