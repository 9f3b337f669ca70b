// Sequential container of layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace ndsnn::nn {

/// Runs layers in order on forward, reverse order on backward. Owns them.
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

  [[nodiscard]] tensor::Tensor forward(const tensor::Tensor& input, bool training) override;
  [[nodiscard]] tensor::Tensor backward(const tensor::Tensor& grad_output) override;
  /// backward() through layers n-1..1, then accumulate_grads() on layer 0.
  void accumulate_grads(const tensor::Tensor& grad_output) override;
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
  std::vector<LayerPtr> layers_;
};

}  // namespace ndsnn::nn
