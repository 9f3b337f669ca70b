#include "core/method.hpp"

#include <cmath>
#include <stdexcept>

namespace ndsnn::core {

void MaskedMethodBase::build_masks(const std::vector<nn::ParamRef>& params,
                                   double initial_sparsity, bool use_erk,
                                   tensor::Rng& rng) {
  if (initialized()) throw std::logic_error("MaskedMethodBase: already initialized");

  std::vector<nn::ParamRef> prunable;
  for (const auto& p : params) {
    if (p.prunable) prunable.push_back(p);
  }
  if (prunable.empty()) {
    throw std::invalid_argument("MaskedMethodBase: no prunable parameters");
  }

  std::vector<sparse::LayerDims> dims;
  dims.reserve(prunable.size());
  for (const auto& p : prunable) dims.push_back(sparse::LayerDims::from_shape(p.value->shape()));

  const std::vector<double> theta =
      use_erk ? sparse::erk_distribution(dims, initial_sparsity)
              : sparse::uniform_distribution(dims, initial_sparsity);

  layers_.reserve(prunable.size());
  for (std::size_t i = 0; i < prunable.size(); ++i) {
    const int64_t n = prunable[i].value->numel();
    const auto active = static_cast<int64_t>((1.0 - theta[i]) * static_cast<double>(n) + 0.5);
    layers_.push_back(MaskedLayer{prunable[i], sparse::Mask(prunable[i].value->shape(),
                                                            active, rng)});
    auto& layer = layers_.back();
    layer.mask.apply(*layer.ref.value);
    // Variance-preserving sparse init: random masking scales each unit's
    // input variance by the density, which can silence downstream spiking
    // neurons entirely (no spikes -> no classifier gradient). Rescaling
    // survivors by 1/sqrt(density) restores the dense activation variance,
    // the sparse counterpart of Kaiming initialization.
    const double density = 1.0 - theta[i];
    if (density > 0.0 && density < 1.0) {
      const auto gain = static_cast<float>(1.0 / std::sqrt(density));
      float* w = layer.ref.value->data();
      for (int64_t j = 0; j < n; ++j) w[j] *= gain;
    }
  }
}

void MaskedMethodBase::before_step(int64_t /*iteration*/) { mask_gradients(); }

void MaskedMethodBase::mask_gradients() {
  for (auto& l : layers_) {
    float* g = l.ref.grad->data();
    const auto& bits = l.mask.bits();
    const int64_t n = l.ref.grad->numel();
    for (int64_t i = 0; i < n; ++i) {
      if (!bits[static_cast<std::size_t>(i)]) g[i] = 0.0F;
    }
  }
}

void MaskedMethodBase::send_grad_masks(bool dense) {
  for (auto& l : layers_) {
    nn::GradMask* sink = l.ref.grad_mask;
    if (sink == nullptr) continue;
    if (dense) {
      sink->keep_all();
    } else {
      sink->keep_only(l.mask.bits());
    }
  }
}

void MaskedMethodBase::mask_weights() {
  for (auto& l : layers_) l.mask.apply(*l.ref.value);
}

double MaskedMethodBase::overall_sparsity() const {
  int64_t total = 0, active = 0;
  for (const auto& l : layers_) {
    total += l.mask.numel();
    active += l.mask.active_count();
  }
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(active) / static_cast<double>(total);
}

std::vector<double> MaskedMethodBase::layer_sparsities() const {
  std::vector<double> out;
  out.reserve(layers_.size());
  for (const auto& l : layers_) out.push_back(l.mask.sparsity());
  return out;
}

std::vector<sparse::LayerDims> MaskedMethodBase::layer_dims() const {
  std::vector<sparse::LayerDims> dims;
  dims.reserve(layers_.size());
  for (const auto& l : layers_) {
    dims.push_back(sparse::LayerDims::from_shape(l.ref.value->shape()));
  }
  return dims;
}

void GradSnapshot::capture(const std::vector<nn::ParamRef>& refs) {
  grads_.clear();
  grads_.reserve(refs.size());
  for (const auto& r : refs) grads_.push_back(*r.grad);
}

const tensor::Tensor& GradSnapshot::grad(std::size_t layer) const {
  if (layer >= grads_.size()) throw std::out_of_range("GradSnapshot::grad: bad layer");
  return grads_[layer];
}

}  // namespace ndsnn::core
