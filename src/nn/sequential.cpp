#include "nn/sequential.hpp"

#include <stdexcept>

namespace ndsnn::nn {

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& input, bool training) {
  tensor::Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x, training);
  return x;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_output) {
  tensor::Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) g = layers_[i]->backward(g);
  return g;
}

void Sequential::accumulate_grads(const tensor::Tensor& grad_output) {
  if (layers_.empty()) return;
  tensor::Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 1;) g = layers_[i]->backward(g);
  layers_[0]->accumulate_grads(g);
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> all;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (auto& p : layers_[i]->params()) {
      p.name = "layer" + std::to_string(i) + "." + p.name;
      all.push_back(p);
    }
  }
  return all;
}

std::string Sequential::name() const {
  return "Sequential(" + std::to_string(layers_.size()) + " layers)";
}

void Sequential::reset_state() {
  for (auto& layer : layers_) layer->reset_state();
}

double Sequential::last_spike_rate() const {
  std::vector<double> rates;
  collect_spike_rates(rates);
  if (rates.empty()) return -1.0;
  double acc = 0.0;
  for (const double r : rates) acc += r;
  return acc / static_cast<double>(rates.size());
}

void Sequential::collect_spike_rates(std::vector<double>& rates) const {
  for (const auto& layer : layers_) {
    if (const auto* seq = dynamic_cast<const Sequential*>(layer.get())) {
      seq->collect_spike_rates(rates);
    } else if (layer->last_spike_rate() >= 0.0) {
      rates.push_back(layer->last_spike_rate());
    }
  }
}

}  // namespace ndsnn::nn
