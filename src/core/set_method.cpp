#include "core/set_method.hpp"

#include <stdexcept>

#include "sparse/topk.hpp"

namespace ndsnn::core {

void SetConfig::validate() const {
  if (sparsity < 0.0 || sparsity >= 1.0) {
    throw std::invalid_argument("SetConfig: sparsity must be in [0, 1)");
  }
  if (delta_t < 1 || t_end < delta_t) {
    throw std::invalid_argument("SetConfig: need delta_t >= 1, t_end >= delta_t");
  }
  if (initial_death_rate < 0.0 || initial_death_rate > 1.0 || min_death_rate < 0.0 ||
      min_death_rate > initial_death_rate) {
    throw std::invalid_argument("SetConfig: bad death rates");
  }
}

SetMethod::SetMethod(SetConfig config) : config_(config) { config_.validate(); }

void SetMethod::initialize(const std::vector<nn::ParamRef>& params, tensor::Rng& rng) {
  build_masks(params, config_.sparsity, config_.use_erk, rng);
  grow_rng_ = rng.fork();
  death_ = std::make_unique<sparse::DeathRateSchedule>(
      config_.initial_death_rate, config_.min_death_rate, 0, config_.delta_t,
      config_.rounds());
  send_grad_masks(/*dense=*/false);
}

bool SetMethod::is_update_step(int64_t iteration) const {
  return iteration > 0 && iteration % config_.delta_t == 0 && iteration < config_.t_end;
}

void SetMethod::after_step(int64_t iteration) {
  if (!initialized()) throw std::logic_error("SetMethod: not initialized");
  if (is_update_step(iteration)) {
    const double dt = death_->at(iteration);
    for (auto& layer : layers()) {
      const int64_t active_now = layer.mask.active_count();
      const auto drop = static_cast<int64_t>(dt * static_cast<double>(active_now));
      if (drop <= 0) continue;
      const auto active = layer.mask.active_indices();
      const auto to_drop = sparse::argdrop_smallest_magnitude(*layer.ref.value, active, drop);
      layer.mask.deactivate(to_drop);

      // Grow the same count back at random (sparsity is conserved).
      auto pool = layer.mask.inactive_indices();
      grow_rng_.shuffle(pool);
      const std::vector<int64_t> to_grow(pool.begin(), pool.begin() + drop);
      layer.mask.activate(to_grow);
      for (const int64_t idx : to_grow) layer.ref.value->at(idx) = 0.0F;
    }
  }
  mask_weights();
  // Random growth reads no gradient: every step needs active entries only.
  send_grad_masks(/*dense=*/false);
}

}  // namespace ndsnn::core
