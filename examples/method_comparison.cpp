// Method comparison: the long-form API walkthrough. Builds each sparse
// training method explicitly (no ExperimentConfig sugar), trains them on
// the same model/data, and prints an accuracy + cost comparison -- a
// miniature of the paper's whole evaluation.
#include <cstdio>
#include <memory>

#include "core/cost_model.hpp"
#include "core/dense_method.hpp"
#include "core/lth_method.hpp"
#include "core/ndsnn_method.hpp"
#include "core/rigl_method.hpp"
#include "core/set_method.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "nn/models/zoo.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

std::unique_ptr<ndsnn::core::SparseTrainingMethod> build_method(const std::string& name,
                                                                double sparsity,
                                                                int64_t total_iters) {
  const int64_t delta_t = 2;
  const int64_t t_end = std::max<int64_t>(delta_t, total_iters * 3 / 4);
  if (name == "dense") return std::make_unique<ndsnn::core::DenseMethod>();
  if (name == "ndsnn") {
    ndsnn::core::NdsnnConfig c;
    c.initial_sparsity = 0.8 * sparsity;
    c.final_sparsity = sparsity;
    c.delta_t = delta_t;
    c.t_end = t_end;
    return std::make_unique<ndsnn::core::NdsnnMethod>(c);
  }
  if (name == "set") {
    ndsnn::core::SetConfig c;
    c.sparsity = sparsity;
    c.delta_t = delta_t;
    c.t_end = t_end;
    return std::make_unique<ndsnn::core::SetMethod>(c);
  }
  if (name == "rigl") {
    ndsnn::core::RiglConfig c;
    c.sparsity = sparsity;
    c.delta_t = delta_t;
    c.t_end = t_end;
    return std::make_unique<ndsnn::core::RiglMethod>(c);
  }
  ndsnn::core::LthConfig c;
  c.final_sparsity = sparsity;
  c.rounds = 3;
  c.epochs_per_round = 2;
  return std::make_unique<ndsnn::core::LthMethod>(c);
}

}  // namespace

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);
  const double sparsity = cli.get_double("--sparsity", 0.9);
  const int64_t epochs = cli.get_int("--epochs", 8);
  cli.reject_unknown();

  // Shared dataset: the synthetic CIFAR-10 stand-in at 8x8.
  ndsnn::data::SyntheticSpec train_spec = ndsnn::data::synthetic_cifar10(0.5, 320);
  ndsnn::data::SyntheticSpec test_spec = train_spec;
  test_spec.train_size = 128;
  test_spec.sample_offset = train_spec.train_size + (int64_t{1} << 20);
  ndsnn::data::SyntheticVision train(train_spec), test(test_spec);

  ndsnn::core::TrainerConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.batch_size = 32;
  tcfg.learning_rate = 0.2;

  std::printf("method comparison: spiking LeNet-5, %.0f%% sparsity, %lld epochs\n\n",
              100.0 * sparsity, static_cast<long long>(epochs));

  const int64_t iters = (train.size() + tcfg.batch_size - 1) / tcfg.batch_size * epochs;

  ndsnn::core::TrainResult dense_result;
  ndsnn::util::Table table({"method", "best acc %", "final sparsity", "mean density",
                            "cost vs dense %"});
  for (const char* name : {"dense", "lth", "set", "rigl", "ndsnn"}) {
    // Fresh model per method (same seed -> identical initialization).
    ndsnn::nn::ModelSpec mspec;
    mspec.num_classes = train.num_classes();
    mspec.in_channels = train.channels();
    mspec.image_size = train.image_size();
    mspec.timesteps = 2;
    mspec.lif.alpha = 0.75F;
    mspec.width_scale = 1.0;
    auto net = ndsnn::nn::make_lenet5(mspec);

    auto method = build_method(name, sparsity, iters);
    ndsnn::core::Trainer trainer(*net, *method, train, test, tcfg);
    const auto result = trainer.run();
    if (std::string(name) == "dense") dense_result = result;

    const double cost = dense_result.epochs.empty()
                            ? 100.0
                            : ndsnn::core::normalized_training_cost_pct(result, dense_result);
    table.add_row({name, ndsnn::util::fmt(result.best_acc_at_final_sparsity),
                   ndsnn::util::fmt(result.final_sparsity, 3),
                   ndsnn::util::fmt(ndsnn::core::mean_density(result), 3),
                   ndsnn::util::fmt(cost, 1)});
    std::printf("  %-6s done (%.1fs)\n", name, result.wall_seconds);
  }
  std::printf("\n");
  table.print();
  std::printf("\nexpected shape (paper): NDSNN >= RigL/SET > LTH in accuracy;\n");
  std::printf("NDSNN lowest training cost among sparse methods.\n");
  return 0;
}
