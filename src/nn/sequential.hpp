// Sequential container of layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace ndsnn::nn {

/// Runs layers in order on forward, reverse order on backward. Owns them.
///
/// Activations and gradients between layers pass through two buffers
/// kept across steps and used in turn (no layer keeps a reference to its
/// input or output), so a step at a steady shape allocates none of them.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Append a layer; returns *this for chaining.
  Sequential& add(LayerPtr layer);

  /// Emplace-construct a layer of type T.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                    util::ThreadPool* pool) override;
  void backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                     util::ThreadPool* pool) override;
  /// backward_into() through layers n-1..1, then accumulate_grads() on
  /// layer 0.
  void accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) override;
  [[nodiscard]] std::vector<ParamRef> params() override;
  [[nodiscard]] std::string name() const override;
  void reset_state() override;
  [[nodiscard]] double last_spike_rate() const override;

  [[nodiscard]] std::size_t size() const { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }
  [[nodiscard]] const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  /// Collect spike rates of all spiking sub-layers (recursing into nested
  /// containers), weighted summary for the cost model.
  void collect_spike_rates(std::vector<double>& rates) const;

 private:
  /// Runs backward_into() through layers [first, size) in reverse,
  /// returning the gradient at layer `first`'s input; it is `last_out`
  /// when given, else one of buffers_.
  const tensor::Tensor& backward_through(std::size_t first, const tensor::Tensor& grad_output,
                                         tensor::Tensor* last_out, util::ThreadPool* pool);

  std::vector<LayerPtr> layers_;
  tensor::Tensor buffers_[2];  // between-layer activations, then gradients
};

}  // namespace ndsnn::nn
