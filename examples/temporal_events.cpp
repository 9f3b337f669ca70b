// Temporal event-stream classification: the genuinely-temporal path.
//
// A DVS-style synthetic dataset emits ON/OFF event planes of a class
// prototype DRIFTING in a class-specific direction -- the label is only
// decodable from WHEN/WHERE events fire, not from any single frame. The
// model uses trainable-leak PLIF neurons (Fang et al., the paper's ref
// [18] lineage) and trains sparsely with NDSNN.
#include <cstdio>
#include <memory>

#include "core/ndsnn_method.hpp"
#include "core/trainer.hpp"
#include "data/event_synthetic.hpp"
#include "nn/conv2d.hpp"
#include "nn/batchnorm.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/neuron_activations.hpp"
#include "nn/pool.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  ndsnn::util::set_log_level(ndsnn::util::LogLevel::kWarn);
  const ndsnn::util::Cli cli(argc, argv);
  const int64_t epochs = cli.get_int("--epochs", 8);
  const double sparsity = cli.get_double("--sparsity", 0.8);
  cli.reject_unknown();

  // Event data: [2*T_ev, S, S] channels carry the whole stream; the SNN
  // then runs its own T timesteps over it (direct encoding of the event
  // volume -- the first conv learns a spatio-temporal filter bank).
  ndsnn::data::EventSpec train_spec;
  train_spec.num_classes = 4;
  train_spec.image_size = 12;
  train_spec.timesteps = 6;
  train_spec.train_size = 256;
  auto test_spec = train_spec;
  test_spec.train_size = 96;
  test_spec.sample_offset = train_spec.train_size + 4096;
  ndsnn::data::SyntheticEvents train(train_spec), test(test_spec);
  std::printf("event dataset: %lld train samples, event rate %.3f\n",
              static_cast<long long>(train.size()), train.measure_event_rate(16));

  // A compact spiking conv net with PLIF nonlinearities.
  const int64_t snn_t = 2;
  ndsnn::tensor::Rng rng(5);
  auto body = std::make_unique<ndsnn::nn::Sequential>();
  body->emplace<ndsnn::nn::Conv2d>(train.channels(), 16, 3, 1, 1, rng);
  body->emplace<ndsnn::nn::BatchNorm2d>(16);
  body->emplace<ndsnn::nn::PlifActivation>(ndsnn::snn::PlifConfig{}, snn_t);
  body->emplace<ndsnn::nn::AvgPool2d>(2);
  body->emplace<ndsnn::nn::Conv2d>(16, 32, 3, 1, 1, rng);
  body->emplace<ndsnn::nn::BatchNorm2d>(32);
  body->emplace<ndsnn::nn::PlifActivation>(ndsnn::snn::PlifConfig{}, snn_t);
  body->emplace<ndsnn::nn::AvgPool2d>(2);
  body->emplace<ndsnn::nn::Flatten>();
  body->emplace<ndsnn::nn::Linear>(32 * 3 * 3, train.num_classes(), rng);
  ndsnn::nn::SpikingNetwork net(std::move(body), snn_t);

  // NDSNN sparse training.
  const int64_t iters = (train.size() + 31) / 32 * epochs;
  ndsnn::core::NdsnnConfig nc;
  nc.initial_sparsity = 0.5 * sparsity;
  nc.final_sparsity = sparsity;
  nc.delta_t = std::max<int64_t>(2, iters / 48);
  nc.t_end = iters * 3 / 4;
  ndsnn::core::NdsnnMethod method(nc);

  ndsnn::core::TrainerConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.learning_rate = 0.1;
  tc.augment = false;  // temporal data: spatial crop/flip would break labels
  ndsnn::core::Trainer trainer(net, method, train, test, tc);
  const auto result = trainer.run();

  ndsnn::util::Table table({"epoch", "train acc %", "test acc %", "sparsity"});
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const auto& s = result.epochs[e];
    table.add_row({std::to_string(e), ndsnn::util::fmt(s.train_acc),
                   ndsnn::util::fmt(s.test_acc), ndsnn::util::fmt(s.sparsity, 3)});
  }
  table.print();

  // The learned PLIF leaks (started at 0.5).
  std::printf("\nlearned PLIF leaks:");
  for (std::size_t i = 0; i < net.body().size(); ++i) {
    if (const auto* plif = dynamic_cast<const ndsnn::nn::PlifActivation*>(&net.body().layer(i))) {
      std::printf(" %.3f", plif->alpha());
    }
  }
  std::printf("\nbest test accuracy: %.2f%% at %.1f%% sparsity (chance %.1f%%)\n",
              result.best_test_acc, 100.0 * result.final_sparsity,
              100.0 / static_cast<double>(train.num_classes()));
  return 0;
}
