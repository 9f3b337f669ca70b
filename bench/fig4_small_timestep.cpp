// Fig. 4: NDSNN vs LTH at the smaller timestep T=2 across sparsities.
//
// Paper: with T=2 (cheaper BPTT), NDSNN beats LTH at every sparsity, by
// the widest margin at 99%.
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

  const std::vector<double> sparsities = {0.90, 0.95, 0.98, 0.99};

  std::printf("=== Fig. 4: NDSNN vs LTH at timestep T=2 (%s, synthetic CIFAR-10) ===\n\n",
              arch.c_str());

  ndsnn::util::Table table({"sparsity", "LTH-SNN (T=2)", "NDSNN (T=2)", "delta"});
  int ndsnn_wins = 0;
  for (const double s : sparsities) {
    double acc[2] = {0.0, 0.0};
    int slot = 0;
    for (const char* method : {"lth", "ndsnn"}) {
      ndsnn::core::ExperimentConfig cfg;
      cfg.arch = arch;
      cfg.dataset = "cifar10";
      cfg.method = method;
      cfg.sparsity = s;
      cfg.timesteps = 2;  // the Fig. 4 regime
      cfg.epochs = epochs;
      cfg.train_samples = samples;
      cfg.test_samples = samples / 2;
      cfg.model_scale = arch == "lenet5" ? 2.0 : 0.1;
      cfg.data_scale = 0.5;
      cfg.learning_rate = 0.2;
      acc[slot++] = ndsnn::core::run_experiment(cfg).best_acc_at_final_sparsity;
    }
    ndsnn_wins += acc[1] >= acc[0];
    table.add_row({ndsnn::util::fmt(100.0 * s, 0) + "%", ndsnn::util::fmt(acc[0]),
                   ndsnn::util::fmt(acc[1]), ndsnn::util::fmt(acc[1] - acc[0])});
  }
  table.print();
  std::printf("\nshape: NDSNN wins at %d/4 sparsities (paper: 4/4; CIFAR-100 deltas\n",
              ndsnn_wins);
  std::printf("reach +5.55 VGG-16 / +13.34 ResNet-19 at 99%%).\n");
  return 0;
}
