#include "nn/sequential.hpp"

#include <stdexcept>

namespace ndsnn::nn {

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

void Sequential::forward_into(const tensor::Tensor& input, tensor::Tensor& out, bool training,
                              util::ThreadPool* pool) {
  if (layers_.empty()) {
    out = input;
    return;
  }
  const tensor::Tensor* x = &input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    tensor::Tensor& y = i + 1 == layers_.size() ? out : buffers_[i % 2];
    layers_[i]->forward_into(*x, y, training, pool);
    x = &y;
  }
}

const tensor::Tensor& Sequential::backward_through(std::size_t first,
                                                   const tensor::Tensor& grad_output,
                                                   tensor::Tensor* last_out,
                                                   util::ThreadPool* pool) {
  const tensor::Tensor* g = &grad_output;
  for (std::size_t i = layers_.size(); i-- > first;) {
    tensor::Tensor& gx = i == first && last_out != nullptr ? *last_out : buffers_[i % 2];
    layers_[i]->backward_into(*g, gx, pool);
    g = &gx;
  }
  return *g;
}

void Sequential::backward_into(const tensor::Tensor& grad_output, tensor::Tensor& grad_input,
                               util::ThreadPool* pool) {
  if (layers_.empty()) {
    grad_input = grad_output;
    return;
  }
  (void)backward_through(0, grad_output, &grad_input, pool);
}

void Sequential::accumulate_grads(const tensor::Tensor& grad_output, util::ThreadPool* pool) {
  if (layers_.empty()) return;
  layers_[0]->accumulate_grads(backward_through(1, grad_output, nullptr, pool), pool);
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
