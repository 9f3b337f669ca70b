// Quickstart: train a sparse spiking LeNet-5 with NDSNN in ~30 seconds.
//
//   ./quickstart [--epochs N] [--sparsity S]
//
// Walks through the full public API: synthetic dataset, model zoo,
// NDSNN method, trainer, and the per-epoch trace.
#include <cstdio>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);

  // 1. Describe the experiment: a width-scaled spiking LeNet-5 on the
  //    synthetic CIFAR-10 stand-in, trained from scratch with NDSNN's
  //    decreasing-nonzeros drop-and-grow schedule.
  ndsnn::core::ExperimentConfig cfg;
  cfg.arch = "lenet5";
  cfg.dataset = "cifar10";
  cfg.method = "ndsnn";
  cfg.sparsity = cli.get_double("--sparsity", 0.9);
  cfg.epochs = cli.get_int("--epochs", 8);
  cli.reject_unknown();
  cfg.train_samples = 320;
  cfg.test_samples = 128;
  cfg.batch_size = 32;
  cfg.model_scale = 1.0;
  cfg.data_scale = 0.5;
  cfg.timesteps = 2;
  cfg.learning_rate = 0.2;

  std::printf("NDSNN quickstart: spiking LeNet-5, target sparsity %.0f%%, T=%lld\n\n",
              100.0 * cfg.sparsity, static_cast<long long>(cfg.timesteps));

  // 2. Build the pieces (also available individually -- see
  //    examples/method_comparison.cpp for the long form).
  ndsnn::core::Experiment exp = ndsnn::core::build_experiment(cfg);
  std::printf("model: %lld prunable weights across %zu parameter tensors\n",
              static_cast<long long>(exp.network->prunable_weight_count()),
              exp.network->params().size());

  // 3. Train.
  ndsnn::core::Trainer trainer(*exp.network, *exp.method, *exp.train_set, *exp.test_set,
                               exp.trainer);
  const ndsnn::core::TrainResult result = trainer.run();

  // 4. Inspect the trace: sparsity ramps up while accuracy climbs.
  ndsnn::util::Table table({"epoch", "train loss", "train acc %", "test acc %",
                            "sparsity", "spike rate"});
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const auto& s = result.epochs[e];
    table.add_row({std::to_string(e), ndsnn::util::fmt(s.train_loss, 3),
                   ndsnn::util::fmt(s.train_acc), ndsnn::util::fmt(s.test_acc),
                   ndsnn::util::fmt(s.sparsity, 3), ndsnn::util::fmt(s.spike_rate, 3)});
  }
  table.print();
  std::printf("\nbest test accuracy: %.2f%% at %.1f%% sparsity (%.1fs)\n",
              result.best_test_acc, 100.0 * result.final_sparsity, result.wall_seconds);
  return 0;
}
