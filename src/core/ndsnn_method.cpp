#include "core/ndsnn_method.hpp"

#include <stdexcept>

#include "sparse/topk.hpp"

namespace ndsnn::core {

void NdsnnConfig::validate() const {
  if (initial_sparsity < 0.0 || initial_sparsity >= 1.0 || final_sparsity < 0.0 ||
      final_sparsity >= 1.0) {
    throw std::invalid_argument("NdsnnConfig: sparsities must be in [0, 1)");
  }
  if (initial_sparsity > final_sparsity) {
    throw std::invalid_argument("NdsnnConfig: initial_sparsity must be <= final_sparsity");
  }
  if (delta_t < 1) throw std::invalid_argument("NdsnnConfig: delta_t must be >= 1");
  if (t_end < delta_t) throw std::invalid_argument("NdsnnConfig: t_end must be >= delta_t");
  if (initial_death_rate < 0.0 || initial_death_rate > 1.0 || min_death_rate < 0.0 ||
      min_death_rate > initial_death_rate) {
    throw std::invalid_argument("NdsnnConfig: need 0 <= min_death_rate <= initial_death_rate <= 1");
  }
  if (ramp_exponent <= 0.0) throw std::invalid_argument("NdsnnConfig: ramp_exponent must be > 0");
}

NdsnnMethod::NdsnnMethod(NdsnnConfig config) : config_(config) { config_.validate(); }

void NdsnnMethod::initialize(const std::vector<nn::ParamRef>& params, tensor::Rng& rng) {
  build_masks(params, config_.initial_sparsity, config_.use_erk, rng);
  grow_rng_ = rng.fork();

  // Per-layer ramps: theta^l_i -> theta^l_f, both ERK-distributed
  // ("following the same scaling proportion", Sec. III-C step 1).
  const auto dims = layer_dims();
  const std::vector<double> theta_f =
      config_.use_erk ? sparse::erk_distribution(dims, config_.final_sparsity)
                      : sparse::uniform_distribution(dims, config_.final_sparsity);
  const std::vector<double> theta_i =
      config_.use_erk ? sparse::erk_distribution(dims, config_.initial_sparsity)
                      : sparse::uniform_distribution(dims, config_.initial_sparsity);

  const int64_t rounds = config_.rounds();
  ramps_.clear();
  ramps_.reserve(dims.size());
  for (std::size_t l = 0; l < dims.size(); ++l) {
    // ERK clamping can give theta_i^l > theta_f^l on tiny layers; pin the
    // start to min(theta_i, theta_f) to preserve the NDSNN invariant.
    const double ti = std::min(theta_i[l], theta_f[l]);
    ramps_.emplace_back(ti, theta_f[l], /*t0=*/0, config_.delta_t, rounds,
                        config_.ramp_exponent);
  }
  death_ = std::make_unique<sparse::DeathRateSchedule>(
      config_.initial_death_rate, config_.min_death_rate, /*t0=*/0, config_.delta_t, rounds);
  send_grad_masks(reads_dense_grads(0));
}

bool NdsnnMethod::reads_dense_grads(int64_t iteration) const {
  return config_.gradient_growth && is_update_step(iteration);
}

bool NdsnnMethod::is_update_step(int64_t iteration) const {
  return iteration > 0 && iteration % config_.delta_t == 0 && iteration < config_.t_end;
}

double NdsnnMethod::target_sparsity(std::size_t layer, int64_t iteration) const {
  if (layer >= ramps_.size()) throw std::out_of_range("NdsnnMethod::target_sparsity");
  return ramps_[layer].at(iteration);
}

double NdsnnMethod::death_rate(int64_t iteration) const {
  if (!death_) throw std::logic_error("NdsnnMethod: not initialized");
  return death_->at(iteration);
}

void NdsnnMethod::before_step(int64_t iteration) {
  if (!initialized()) throw std::logic_error("NdsnnMethod: not initialized");
  if (is_update_step(iteration) && config_.gradient_growth) {
    // Growth needs gradients of *inactive* weights: snapshot them dense,
    // before masking (Algorithm 1 computes Grad_l via Eq. 2c).
    std::vector<nn::ParamRef> refs;
    refs.reserve(layers().size());
    for (const auto& l : layers()) refs.push_back(l.ref);
    snapshot_.capture(refs);
  }
  mask_gradients();
}

void NdsnnMethod::after_step(int64_t iteration) {
  if (!initialized()) throw std::logic_error("NdsnnMethod: not initialized");
  if (is_update_step(iteration)) {
    const double dt = death_->at(iteration);
    for (std::size_t li = 0; li < layers().size(); ++li) {
      auto& layer = layers()[li];
      const int64_t n = layer.mask.numel();
      const int64_t active_now = layer.mask.active_count();
      const double theta_t = ramps_[li].at(iteration);
      const auto counts = sparse::drop_grow_counts(n, active_now, dt, theta_t);

      // Drop: active weights closest to zero (Eq. 7 / ArgDrop).
      if (counts.drop > 0) {
        const auto active = layer.mask.active_indices();
        const auto to_drop =
            sparse::argdrop_smallest_magnitude(*layer.ref.value, active, counts.drop);
        layer.mask.deactivate(to_drop);
      }

      // Grow: inactive weights with the largest gradient magnitude
      // (Eq. 9 / ArgGrow); new weights start at zero, RigL-style.
      if (counts.grow > 0) {
        const auto inactive = layer.mask.inactive_indices();
        std::vector<int64_t> to_grow;
        if (config_.gradient_growth && snapshot_.valid()) {
          to_grow = sparse::arggrow_largest_magnitude(snapshot_.grad(li), inactive,
                                                      counts.grow);
        } else {
          // Random growth ablation.
          std::vector<int64_t> pool = inactive;
          grow_rng_.shuffle(pool);
          to_grow.assign(pool.begin(), pool.begin() + counts.grow);
        }
        layer.mask.activate(to_grow);
        for (const int64_t idx : to_grow) layer.ref.value->at(idx) = 0.0F;
      }
    }
    snapshot_.clear();
  }
  mask_weights();
  send_grad_masks(reads_dense_grads(iteration + 1));
}

}  // namespace ndsnn::core
