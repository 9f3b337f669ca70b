#include "core/rigl_method.hpp"

#include <stdexcept>

#include "sparse/topk.hpp"

namespace ndsnn::core {

void RiglConfig::validate() const {
  if (sparsity < 0.0 || sparsity >= 1.0) {
    throw std::invalid_argument("RiglConfig: sparsity must be in [0, 1)");
  }
  if (delta_t < 1 || t_end < delta_t) {
    throw std::invalid_argument("RiglConfig: need delta_t >= 1, t_end >= delta_t");
  }
  if (initial_death_rate < 0.0 || initial_death_rate > 1.0 || min_death_rate < 0.0 ||
      min_death_rate > initial_death_rate) {
    throw std::invalid_argument("RiglConfig: bad death rates");
  }
}

RiglMethod::RiglMethod(RiglConfig config) : config_(config) { config_.validate(); }

void RiglMethod::initialize(const std::vector<nn::ParamRef>& params, tensor::Rng& rng) {
  build_masks(params, config_.sparsity, config_.use_erk, rng);
  death_ = std::make_unique<sparse::DeathRateSchedule>(
      config_.initial_death_rate, config_.min_death_rate, 0, config_.delta_t,
      config_.rounds());
  send_grad_masks(is_update_step(0));
}

bool RiglMethod::is_update_step(int64_t iteration) const {
  return iteration > 0 && iteration % config_.delta_t == 0 && iteration < config_.t_end;
}

void RiglMethod::before_step(int64_t iteration) {
  if (!initialized()) throw std::logic_error("RiglMethod: not initialized");
  if (is_update_step(iteration)) {
    std::vector<nn::ParamRef> refs;
    refs.reserve(layers().size());
    for (const auto& l : layers()) refs.push_back(l.ref);
    snapshot_.capture(refs);
  }
  mask_gradients();
}

void RiglMethod::after_step(int64_t iteration) {
  if (!initialized()) throw std::logic_error("RiglMethod: not initialized");
  if (is_update_step(iteration)) {
    const double dt = death_->at(iteration);
    for (std::size_t li = 0; li < layers().size(); ++li) {
      auto& layer = layers()[li];
      const int64_t active_now = layer.mask.active_count();
      const auto drop = static_cast<int64_t>(dt * static_cast<double>(active_now));
      if (drop <= 0) continue;
      const auto active = layer.mask.active_indices();
      const auto to_drop = sparse::argdrop_smallest_magnitude(*layer.ref.value, active, drop);
      layer.mask.deactivate(to_drop);

      const auto inactive = layer.mask.inactive_indices();
      const auto to_grow =
          sparse::arggrow_largest_magnitude(snapshot_.grad(li), inactive, drop);
      layer.mask.activate(to_grow);
      for (const int64_t idx : to_grow) layer.ref.value->at(idx) = 0.0F;
    }
    snapshot_.clear();
  }
  mask_weights();
  // Growth reads dense gradients on update steps only.
  send_grad_masks(is_update_step(iteration + 1));
}

}  // namespace ndsnn::core
