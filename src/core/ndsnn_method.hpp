// NDSNN: the paper's contribution (Sec. III-C, Algorithm 1).
//
// Train from scratch at ERK-distributed initial sparsity theta_i; every
// delta_t iterations drop the smallest-magnitude active weights at the
// cosine-annealed death rate (Eq. 5) and grow the largest-gradient
// inactive weights, but only up to the Eq. 4 cubic sparsity target -- so
// the number of non-zeros monotonically DECREASES from (1-theta_i)N to
// (1-theta_f)N, unlike SET/RigL which hold it constant.
#pragma once

#include "core/method.hpp"
#include "sparse/schedule.hpp"

namespace ndsnn::core {

struct NdsnnConfig {
  double initial_sparsity = 0.5;   ///< theta_i (paper explores {0.5..0.9})
  double final_sparsity = 0.9;     ///< theta_f
  int64_t delta_t = 100;           ///< mask-update period in iterations
  int64_t t_end = 10000;           ///< last iteration that may update masks
  /// d_0 in Eq. 5. Tuned per method as the original papers do: SET/RigL
  /// use their canonical 0.3; NDSNN favors gentler churn because its
  /// sparsity ramp already retires connections every round.
  double initial_death_rate = 0.1;
  double min_death_rate = 0.05;    ///< d_min in Eq. 5
  bool use_erk = true;             ///< layer-wise distribution
  double ramp_exponent = 3.0;      ///< Eq. 4 exponent (3 = paper; ablation)
  /// Grow by gradient magnitude (Algorithm 1). False = random growth, an
  /// ablation that isolates the schedule from the growth criterion.
  bool gradient_growth = true;

  void validate() const;
  /// Number of drop-and-grow rounds n = floor(t_end / delta_t).
  [[nodiscard]] int64_t rounds() const { return t_end / delta_t; }
};

class NdsnnMethod final : public MaskedMethodBase {
 public:
  explicit NdsnnMethod(NdsnnConfig config);

  void initialize(const std::vector<nn::ParamRef>& params, tensor::Rng& rng) override;
  void before_step(int64_t iteration) override;
  void after_step(int64_t iteration) override;
  [[nodiscard]] std::string name() const override { return "NDSNN"; }

  [[nodiscard]] const NdsnnConfig& config() const { return config_; }
  /// Eq. 4 target sparsity of layer l at iteration t (for tests/plots).
  [[nodiscard]] double target_sparsity(std::size_t layer, int64_t iteration) const;
  /// Eq. 5 death rate at iteration t.
  [[nodiscard]] double death_rate(int64_t iteration) const;
  /// True when `iteration` is a drop-and-grow round boundary.
  [[nodiscard]] bool is_update_step(int64_t iteration) const;
  /// True when before_step(iteration) snapshots dense gradients (gradient
  /// growth on an update step); on every other step the layers compute
  /// only the active weight-gradient entries.
  [[nodiscard]] bool reads_dense_grads(int64_t iteration) const;

 private:
  NdsnnConfig config_;
  std::vector<sparse::SparsityRamp> ramps_;     // one per layer
  std::unique_ptr<sparse::DeathRateSchedule> death_;
  GradSnapshot snapshot_;
  tensor::Rng grow_rng_{0};
};

}  // namespace ndsnn::core
