// Fig. 5: normalized training cost of Dense / LTH / NDSNN.
//
// cost_i = (spike_rate_sparse_i * density_i) / spike_rate_dense_i, epoch
// mean, in percent of the dense run (Sec. IV-C). Paper reference points:
// NDSNN VGG-16 CIFAR-10 = 10.5% of dense and 31.35% of LTH; ResNet-19 =
// 40.89% of LTH. Next to that modelled cost, the "wall %" columns give
// the realised one: each run's measured Trainer::run wall time in percent
// of the dense run's on the same host, and NDSNN's wall time in percent of
// LTH's next to the modelled NDSNN/LTH ratio.
//
// --arch picks the network: lenet5 (the default; width 2, 16x16 inputs),
// resnet19 (width 0.25, 16x16) or vgg16 (width 0.25, 32x32: VGG needs a
// multiple of 32, so the half-resolution request is rounded up). All run
// T = 2 on synthetic CIFAR-shaped data; nothing is downloaded.
//
//   ./build/bench/fig5_training_cost [--arch lenet5|vgg16|resnet19]
//       [--epochs 12] [--samples 384] [--sparsity 0.95] [--full]
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);
  const std::string arch = cli.get_string("--arch", "lenet5");
  const bool full = cli.has_flag("--full");
  const int64_t epochs = cli.get_int("--epochs", 12);
  const int64_t samples = cli.get_int("--samples", full ? 768 : 384);
  const double sparsity = cli.get_double("--sparsity", 0.95);
  cli.reject_unknown();

  std::printf("=== Fig. 5: normalized training cost (sparsity %.2f) ===\n", sparsity);
  std::printf("paper: NDSNN = 10.5%% of dense (VGG-16/CIFAR-10); NDSNN/LTH = 31.35%%\n");
  std::printf("(VGG-16) and 40.89%% (ResNet-19).\n\n");

  ndsnn::util::Table table({"arch", "dataset", "Dense %", "LTH %", "NDSNN %", "NDSNN/LTH %",
                            "LTH wall %", "NDSNN wall %", "NDSNN/LTH wall %"});
  for (const char* dataset : {"cifar10", "cifar100"}) {
    ndsnn::core::ExperimentConfig base;
    base.arch = arch;
    base.dataset = dataset;
    base.sparsity = sparsity;
    base.epochs = epochs;
    base.train_samples = samples;
    base.test_samples = samples / 2;
    base.model_scale = arch == "lenet5" ? 2.0 : 0.25;
    base.data_scale = 0.5;
    base.timesteps = 2;
    base.learning_rate = 0.2;

    auto dense_cfg = base;
    dense_cfg.method = "dense";
    auto lth_cfg = base;
    lth_cfg.method = "lth";
    auto ndsnn_cfg = base;
    ndsnn_cfg.method = "ndsnn";

    const auto dense = ndsnn::core::run_experiment(dense_cfg);
    const auto lth = ndsnn::core::run_experiment(lth_cfg);
    const auto ndsnn_run = ndsnn::core::run_experiment(ndsnn_cfg);

    const double lth_cost = ndsnn::core::normalized_training_cost_pct(lth, dense);
    const double nd_cost = ndsnn::core::normalized_training_cost_pct(ndsnn_run, dense);
    const auto wall_pct = [&](const ndsnn::core::TrainResult& run) {
      return dense.wall_seconds > 0 ? 100.0 * run.wall_seconds / dense.wall_seconds : 0.0;
    };
    table.add_row(
        {arch, dataset, "100.00", ndsnn::util::fmt(lth_cost), ndsnn::util::fmt(nd_cost),
         ndsnn::util::fmt(lth_cost > 0 ? 100.0 * nd_cost / lth_cost : 0.0),
         ndsnn::util::fmt(wall_pct(lth)), ndsnn::util::fmt(wall_pct(ndsnn_run)),
         ndsnn::util::fmt(lth.wall_seconds > 0
                              ? 100.0 * ndsnn_run.wall_seconds / lth.wall_seconds
                              : 0.0)});
  }
  table.print();
  std::printf("\nDense/LTH/NDSNN %%: modelled cost (spike rate x weight density). wall %%:\n");
  std::printf("measured Trainer::run wall time. Both in percent of the dense run;\n");
  std::printf("NDSNN/LTH: NDSNN in percent of LTH, modelled and measured.\n");
  return 0;
}
