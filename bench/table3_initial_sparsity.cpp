// Table III: effect of the initial sparsity theta_i on final accuracy
// for fixed targets theta_f in {0.95, 0.98}.
//
// Paper finding: the accuracy gap across theta_i in {0.5 .. 0.9} is small
// (~1-2%), so a high theta_i (cheap training) costs little accuracy.
#include <cstdio>
#include <vector>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);
  const bool full = cli.has_flag("--full");
  const std::string arch = cli.get_string("--arch", "lenet5");
  const int64_t epochs = cli.get_int("--epochs", 12);
  const int64_t samples = cli.get_int("--samples", full ? 768 : 384);
  cli.reject_unknown();

  const std::vector<double> targets = {0.95, 0.98};
  const std::vector<double> initials = {0.9, 0.8, 0.7, 0.6, 0.5};

  std::printf("=== Table III: initial-sparsity ablation (%s, synthetic CIFAR-10) ===\n",
              arch.c_str());
  std::printf("paper: accuracy gap across theta_i is ~1-2%%; higher theta_i\n");
  std::printf("means higher mean training sparsity (cheaper training).\n\n");

  ndsnn::util::Table table(
      {"target", "initial", "best acc %", "mean density", "final sparsity"});
  for (const double tf : targets) {
    double min_acc = 1e9, max_acc = -1e9;
    for (const double ti : initials) {
      ndsnn::core::ExperimentConfig cfg;
      cfg.arch = arch;
      cfg.dataset = "cifar10";
      cfg.method = "ndsnn";
      cfg.sparsity = tf;
      cfg.initial_sparsity = ti;
      cfg.epochs = epochs;
      cfg.train_samples = samples;
      cfg.test_samples = samples / 2;
      cfg.model_scale = arch == "lenet5" ? 2.0 : 0.1;
      cfg.data_scale = 0.5;
      cfg.timesteps = 2;
      cfg.learning_rate = 0.2;
      const auto r = ndsnn::core::run_experiment(cfg);
      min_acc = std::min(min_acc, r.best_acc_at_final_sparsity);
      max_acc = std::max(max_acc, r.best_acc_at_final_sparsity);
      table.add_row({ndsnn::util::fmt(tf), ndsnn::util::fmt(ti),
                     ndsnn::util::fmt(r.best_acc_at_final_sparsity),
                     ndsnn::util::fmt(ndsnn::core::mean_density(r), 3),
                     ndsnn::util::fmt(r.final_sparsity, 3)});
    }
    std::printf("target %.2f: accuracy spread across initial sparsities = %.2f%%\n", tf,
                max_acc - min_acc);
  }
  std::printf("\n");
  table.print();
  return 0;
}
