// Ablations of NDSNN's design choices (DESIGN.md section 5):
//   1. growth criterion: gradient-magnitude (paper) vs random (SET-style)
//   2. sparsity ramp: cubic Eq. 4 (paper) vs linear
//   3. layer distribution: ERK (paper) vs uniform
//   4. death-rate floor d_min sweep
// Each ablation trains the same model/data and reports accuracy at the
// final sparsity, isolating the contribution of each ingredient.
#include <cstdio>
#include <functional>
#include <memory>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

double run_variant(const ndsnn::core::ExperimentConfig& base,
                   const std::function<void(ndsnn::core::NdsnnConfig&)>& tweak) {
  ndsnn::core::Experiment exp = ndsnn::core::build_experiment(base);
  const int64_t iters =
      (base.train_samples + base.batch_size - 1) / base.batch_size * base.epochs;

  ndsnn::core::NdsnnConfig c;
  c.initial_sparsity = base.theta_initial();
  c.final_sparsity = base.sparsity;
  c.delta_t = std::max<int64_t>(2, iters / 48);
  c.t_end = iters * 3 / 4;
  tweak(c);
  ndsnn::core::NdsnnMethod method(c);

  ndsnn::core::Trainer trainer(*exp.network, method, *exp.train_set, *exp.test_set,
                               exp.trainer);
  return trainer.run().best_acc_at_final_sparsity;
}

}  // namespace

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);

  ndsnn::core::ExperimentConfig base;
  base.arch = "lenet5";
  base.dataset = "cifar10";
  base.sparsity = cli.get_double("--sparsity", 0.95);
  base.epochs = cli.get_int("--epochs", 12);
  base.train_samples = cli.get_int("--samples", 384);
  cli.reject_unknown();
  base.test_samples = 192;
  base.model_scale = 2.0;
  base.data_scale = 0.5;
  base.timesteps = 2;

  std::printf("=== NDSNN design ablations (LeNet-5, target sparsity %.2f) ===\n\n",
              base.sparsity);

  ndsnn::util::Table table({"variant", "acc % @ final sparsity", "note"});

  const double paper = run_variant(base, [](auto&) {});
  table.add_row({"NDSNN (paper: cubic + gradient growth + ERK)",
                 ndsnn::util::fmt(paper), "reference"});

  const double random_growth =
      run_variant(base, [](auto& c) { c.gradient_growth = false; });
  table.add_row({"random growth (SET-style)", ndsnn::util::fmt(random_growth),
                 "isolates the RigL-style growth criterion"});

  const double linear_ramp = run_variant(base, [](auto& c) { c.ramp_exponent = 1.0; });
  table.add_row({"linear ramp (Eq. 4 exponent 1)", ndsnn::util::fmt(linear_ramp),
                 "prunes harder early"});

  const double uniform = run_variant(base, [](auto& c) { c.use_erk = false; });
  table.add_row({"uniform layer distribution", ndsnn::util::fmt(uniform),
                 "thin layers over-pruned"});

  for (const double dmin : {0.0, 0.05}) {
    const double acc = run_variant(base, [dmin](auto& c) { c.min_death_rate = dmin; });
    table.add_row({"d_min = " + ndsnn::util::fmt(dmin, 2), ndsnn::util::fmt(acc),
                   "exploration floor"});
  }

  table.print();
  std::printf("\npaper configuration should be at or near the top.\n");
  return 0;
}
