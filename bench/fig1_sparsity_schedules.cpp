// Fig. 1: sparsity-vs-epoch curves of the three sparsification families.
//
//  - train-prune-retrain (ADMM style): dense for the first half, then a
//    jump to the target sparsity;
//  - iterative pruning (LTH): staircase rising from 0 to the target;
//  - NDSNN: starts high (theta_i) and ramps cubically to theta_f.
//
// This bench is analytic (no training): it evaluates the exact schedules
// the trainers implement, over the paper's 300-epoch x-axis, and prints
// one row per sampled epoch so the three curves can be plotted.
#include <cstdio>

#include "core/lth_method.hpp"
#include "sparse/schedule.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using ndsnn::core::LthConfig;
using ndsnn::sparse::SparsityRamp;

double admm_schedule(int64_t epoch, int64_t total, double target) {
  // Dense during the penalty phase (first half), hard prune afterwards.
  return epoch < total / 2 ? 0.0 : target;
}

}  // namespace

int main(int argc, char** argv) {
  const ndsnn::util::Cli cli(argc, argv);
  const int64_t epochs = cli.get_int("--epochs", 300);
  const double target = cli.get_double("--target", 0.95);
  const double theta_i = cli.get_double("--initial", 0.8);
  cli.reject_unknown();

  std::printf("=== Fig. 1: sparsity schedules (target sparsity %.2f) ===\n", target);
  std::printf("paper: train-prune-retrain is dense for ~150 epochs; LTH rises\n");
  std::printf("stepwise; NDSNN stays in the %.2f..%.2f band throughout.\n\n", theta_i, target);

  LthConfig lth;
  lth.final_sparsity = target;
  lth.rounds = 10;
  lth.epochs_per_round = epochs / (lth.rounds + 1);

  // NDSNN ramp in epoch units (delta_t = 1 epoch here).
  SparsityRamp ndsnn(theta_i, target, 0, 1, epochs);
  SparsityRamp ndsnn_linear(theta_i, target, 0, 1, epochs, /*exponent=*/1.0);

  ndsnn::util::Table table(
      {"epoch", "train-prune-retrain", "iterative (LTH)", "NDSNN (cubic)", "NDSNN (linear ablation)"});
  for (int64_t e = 0; e <= epochs; e += epochs / 20) {
    const double lth_s = lth.sparsity_after_round(e / lth.epochs_per_round);
    table.add_row({std::to_string(e), ndsnn::util::fmt(admm_schedule(e, epochs, target)),
                   ndsnn::util::fmt(lth_s), ndsnn::util::fmt(ndsnn.at(e)),
                   ndsnn::util::fmt(ndsnn_linear.at(e))});
  }
  table.print();

  // Mean training density (proportional to training FLOPs) per method --
  // the quantitative content of the grey region in Fig. 1.
  double mean_tpr = 0.0, mean_lth = 0.0, mean_nd = 0.0;
  for (int64_t e = 0; e < epochs; ++e) {
    mean_tpr += 1.0 - admm_schedule(e, epochs, target);
    mean_lth += 1.0 - lth.sparsity_after_round(e / lth.epochs_per_round);
    mean_nd += 1.0 - ndsnn.at(e);
  }
  std::printf("\nmean training density (lower = cheaper):\n");
  std::printf("  train-prune-retrain : %.3f\n", mean_tpr / static_cast<double>(epochs));
  std::printf("  iterative (LTH)     : %.3f\n", mean_lth / static_cast<double>(epochs));
  std::printf("  NDSNN               : %.3f  <- always sparse\n",
              mean_nd / static_cast<double>(epochs));
  return 0;
}
